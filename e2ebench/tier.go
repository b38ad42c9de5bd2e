package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ddsketch-go/ddsketch/internal/ddserver"
)

const (
	// leafInterval is one leaf window interval on the benchmark clock.
	// The benchmark advances the clock by it to close an interval, so
	// freshness measures the pipeline, not the window length.
	leafInterval = time.Second
	leafWindows  = 6
	// regInterval is the keyed registry's interval on the same clock:
	// so long that interval closes never rotate the registry, only the
	// benchmark's explicit registry rotations do. regWindows exceeds the
	// rotations of one run, so no keyed value ages out and the roll-up
	// count can be checked exactly.
	regInterval = 1_000_000 * leafInterval
	regWindows  = 8

	opHeader = "X-Bench-Op"
)

// benchClock is a Config.Now clock that only the benchmark moves.
type benchClock struct{ ns atomic.Int64 }

func newBenchClock() *benchClock {
	c := &benchClock{}
	c.ns.Store(time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano())
	return c
}

func (c *benchClock) Now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *benchClock) Advance(d time.Duration) { c.ns.Add(int64(d)) }

// faults are deliberate corruptions the self-tests inject to prove the
// checks reject them. The benchmark itself never sets them.
type faults struct {
	// dropRootIngest, when positive, makes the root answer its n-th
	// /ingest with 202 without merging it: a dropped interval.
	dropRootIngest int64
	// rollupOffset is added to the keyed roll-up count the check reads.
	rollupOffset float64
	// mismatchedAlpha replaces agent payload 0 with a sketch at another
	// α, which the leaf must refuse with 409.
	mismatchedAlpha bool
}

// closeRecord is one leaf interval close: when the benchmark closed it
// and which forwarded interval (1-based spool sequence) it produced.
type closeRecord struct {
	seq   int64
	at    time.Time
	timed bool
}

// tier is the in-process leaf→root pair on loopback listeners. The leaf
// forwards every closed interval to the root's /ingest. Both run on
// benchmark clocks; the root's never moves, so it never rotates.
type tier struct {
	leaf, root       *ddserver.Server
	leafURL, rootURL string
	clock            *benchClock

	rec    *recorder // nil when untraced
	faults faults

	tick      chan time.Time // the leaf's drain loop tick
	stopDrain chan struct{}
	drainDone chan struct{}
	servers   []*http.Server
	serveDone []chan struct{}

	closeReq   chan struct{}  // interval close requests from the connections
	cmd        chan closerCmd // closes, rotations and syncs from set-up and measure
	stopCloser chan struct{}
	closerDone chan struct{}

	rootIngests atomic.Int64 // /ingest requests seen by the root

	mu       sync.Mutex
	rootAcks []time.Time // completion of each 2xx root /ingest, in order
	closes   []closeRecord
	pending  *closeRecord // last close, until its spool outcome is known
	timed    bool         // closes from now on are in the timed phase
	spoolMax int
}

// newTier builds the tier; regSketches, when positive, is the leaf
// registry's sketch budget.
func newTier(rec *recorder, fl faults, regSketches int) (*tier, error) {
	t := &tier{
		clock:      newBenchClock(),
		rec:        rec,
		faults:     fl,
		tick:       make(chan time.Time),
		stopDrain:  make(chan struct{}),
		drainDone:  make(chan struct{}),
		closeReq:   make(chan struct{}, 1),
		cmd:        make(chan closerCmd),
		stopCloser: make(chan struct{}),
		closerDone: make(chan struct{}),
	}
	rootCfg := ddserver.DefaultConfig()
	rootCfg.Alpha = alpha
	rootCfg.Interval = leafInterval
	rootCfg.Windows = leafWindows
	rootCfg.Now = newBenchClock().Now
	root, err := ddserver.NewServer(rootCfg)
	if err != nil {
		return nil, err
	}
	t.root = root
	if t.rootURL, err = t.serve(t.wrap("root", root.Handler())); err != nil {
		t.close()
		return nil, err
	}

	leafCfg := ddserver.DefaultConfig()
	leafCfg.Alpha = alpha
	leafCfg.Interval = leafInterval
	leafCfg.Windows = leafWindows
	leafCfg.RegistryWindows = regWindows
	leafCfg.RegistryInterval = regInterval
	if regSketches > 0 {
		leafCfg.RegistrySketches = regSketches
	}
	leafCfg.Now = t.clock.Now
	leafCfg.Forward.URL = t.rootURL + "/ingest"
	leaf, err := ddserver.NewServer(leafCfg)
	if err != nil {
		t.close()
		return nil, err
	}
	t.leaf = leaf
	var h http.Handler = leaf.Handler()
	if rec != nil {
		h = t.wrap("leaf", h)
	}
	if t.leafURL, err = t.serve(h); err != nil {
		t.close()
		return nil, err
	}
	go func() {
		defer close(t.drainDone)
		leaf.RunDrainLoop(t.tick, t.stopDrain)
	}()
	go t.runCloser()
	return t, nil
}

// serve starts an HTTP server for h on a loopback port.
func (t *tier) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln)
	}()
	t.servers = append(t.servers, hs)
	t.serveDone = append(t.serveDone, done)
	return "http://" + ln.Addr().String(), nil
}

// close stops every goroutine the tier started and waits for each.
func (t *tier) close() {
	if t.leaf != nil {
		close(t.stopCloser)
		<-t.closerDone
		close(t.stopDrain)
		<-t.drainDone
		t.leaf.Close()
	}
	for i, hs := range t.servers {
		_ = hs.Close()
		<-t.serveDone[i]
	}
	if t.root != nil {
		t.root.Close()
	}
}

// statusWriter records the status a handler answered with.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// wrap times a server's public Handler. On the root it also records
// when each /ingest returns 2xx, which is what freshness is measured
// to; spans are recorded only when tracing.
func (t *tier) wrap(side string, h http.Handler) http.Handler {
	name := side + "."
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rootIngest := side == "root" && r.URL.Path == "/ingest"
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		if rootIngest && t.rootIngests.Add(1) == t.faults.dropRootIngest {
			_, _ = io.Copy(io.Discard, r.Body)
			sw.WriteHeader(http.StatusAccepted)
		} else {
			h.ServeHTTP(sw, r)
		}
		end := time.Now()
		if rootIngest && sw.status/100 == 2 {
			t.mu.Lock()
			t.rootAcks = append(t.rootAcks, end)
			t.mu.Unlock()
		}
		if t.rec != nil {
			id, err := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
			if err != nil {
				id = -1
			}
			route := r.URL.Path[1:]
			if route == "values" && r.URL.Query().Has("key") {
				route = "values_keyed"
			}
			t.rec.add(name+route, id, start, end)
		}
	})
}

// closerCmd is a request to the closer from set-up or measure.
type closerCmd struct {
	step time.Duration
	done chan struct{}
}

// runCloser owns the leaf clock: it closes an interval whenever a
// connection asks, and runs the commands of set-up and measure.
func (t *tier) runCloser() {
	defer close(t.closerDone)
	for {
		select {
		case <-t.stopCloser:
			return
		case <-t.closeReq:
			t.closeInterval(leafInterval)
		case c := <-t.cmd:
			if c.step > 0 {
				t.closeInterval(c.step)
			} else {
				t.sync()
			}
			close(c.done)
		}
	}
}

// closeInterval advances the leaf clock by step and ticks the drain
// loop so it notices. The first tick cannot be received before the
// previous close's drain has finished, so exactly one interval closes
// per advance, and the spool sequence of the previous close is known. A
// third tick returns once the closing drain is done, which is where the
// drain span ends; it is sent traced or not, so both passes make the
// same drains.
func (t *tier) closeInterval(step time.Duration) {
	start := time.Now()
	t.tick <- start
	t.resolvePending()
	fs, _ := t.leaf.ForwardStats()
	t.clock.Advance(step)
	closedAt := time.Now()
	t.tick <- closedAt
	t.mu.Lock()
	t.pending = &closeRecord{seq: fs.Spooled, at: closedAt, timed: t.timed}
	t.spoolMax = max(t.spoolMax, fs.SpoolDepth)
	t.mu.Unlock()
	t.tick <- closedAt
	if t.rec != nil {
		t.rec.add("drain_loop", -1, start, time.Now())
	}
}

// sync waits until the drain loop has finished every drain ticked so
// far, then records the last close's outcome. Two ticks: the second is
// received only after the first one's drain.
func (t *tier) sync() {
	t.tick <- time.Now()
	t.tick <- time.Now()
	t.resolvePending()
}

// resolvePending records which forwarded interval the last close
// produced, if any. The caller has made sure its drain finished.
func (t *tier) resolvePending() {
	fs, _ := t.leaf.ForwardStats()
	t.mu.Lock()
	defer t.mu.Unlock()
	if p := t.pending; p != nil && fs.Spooled > p.seq {
		t.closes = append(t.closes, closeRecord{seq: fs.Spooled, at: p.at, timed: p.timed})
	}
	t.pending = nil
	t.spoolMax = max(t.spoolMax, fs.SpoolDepth)
}

// requestClose asks the closer for an interval close without blocking;
// a request made while one is pending folds into it.
func (t *tier) requestClose() {
	select {
	case t.closeReq <- struct{}{}:
	default:
	}
}

// command runs step on the closer's goroutine, which owns the clock,
// and waits for it: step > 0 closes an interval advancing the clock by
// step; step 0 runs sync.
func (t *tier) command(step time.Duration) {
	done := make(chan struct{})
	t.cmd <- closerCmd{step: step, done: done}
	<-done
}

// rotateRegistry advances the clock by one registry interval; the drain
// loop's tick rotates the registry.
func (t *tier) rotateRegistry() { t.command(regInterval) }

// setTimed marks closes from now on as part of the timed phase.
func (t *tier) setTimed(timed bool) {
	t.mu.Lock()
	t.timed = timed
	t.mu.Unlock()
}

// flush closes the open interval with every acknowledged write drained
// into it, and waits until the leaf has delivered every spooled
// interval. With no faults injected delivery takes milliseconds; the
// ten-second limit only bounds a broken run.
func (t *tier) flush() error {
	t.command(0)
	t.command(leafInterval)
	t.command(0)
	deadline := time.Now().Add(10 * time.Second)
	for {
		fs, _ := t.leaf.ForwardStats()
		if fs.SpoolDepth == 0 && fs.Forwarded+fs.Shed+fs.Rejected >= fs.Spooled {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("leaf did not deliver its spooled intervals in time")
		}
		time.Sleep(time.Millisecond)
	}
}

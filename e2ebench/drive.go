package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// conn is one closed-loop client: it replays its pre-generated op
// sequence, cycling, and waits for each reply before sending the next.
type conn struct {
	id     int
	client *http.Client
	ops    []op
	pos    int
	buf    bytes.Buffer
	nextID int64

	// Timed-phase samples of acknowledged ops.
	writes, reads []sample

	attempted int64 // every phase
	failed    int64

	// Acknowledged outcomes over every phase, which is what the root
	// and the registry must converge to.
	ackSets    []int64 // unkeyed /values, per set
	ackKeyed   []int64 // keyed /values, per set
	ackPayload []int64 // /ingest, per payload
	labelSeen  []bool

	failures []string
}

// sample is one acknowledged op of the timed phase: when it completed,
// as an offset from the phase's start, and its latency.
type sample struct {
	at, latency time.Duration
}

// runner drives one tier with one workload's inputs.
type runner struct {
	in     *inputs
	t      *tier
	conns  [numConns]*conn
	writes atomic.Int64 // acknowledged writes, for interval closes
	start  time.Time    // of the timed phase
}

func newRunner(in *inputs, t *tier) *runner {
	r := &runner{in: in, t: t}
	for i := range r.conns {
		r.conns[i] = &conn{
			id: i,
			// One transport per connection keeps the two clients on
			// separate keep-alive connections.
			client:     &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true}, Timeout: 30 * time.Second},
			ops:        in.conns[i],
			ackSets:    make([]int64, len(in.sets)),
			ackKeyed:   make([]int64, len(in.sets)),
			ackPayload: make([]int64, len(in.payloads)),
			labelSeen:  make([]bool, len(in.labels)),
		}
	}
	return r
}

// close releases the clients' idle connections.
func (r *runner) close() {
	for _, c := range r.conns {
		c.client.CloseIdleConnections()
	}
}

// phase runs every connection until deadline passes (when non-zero) or
// it has made n ops (when positive), and waits for all of them.
// Samples are recorded only when timed.
func (r *runner) phase(deadline time.Time, n int, timed bool) {
	var wg sync.WaitGroup
	for _, c := range r.conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for i := 0; n <= 0 || i < n; i++ {
				if !deadline.IsZero() && !time.Now().Before(deadline) {
					return
				}
				r.step(c, timed)
			}
		}(c)
	}
	wg.Wait()
}

// sendAll sends each connection's ops once, the connections
// concurrently, and waits for them.
func (r *runner) sendAll(ops [numConns][]op) {
	var wg sync.WaitGroup
	for i, c := range r.conns {
		wg.Add(1)
		go func(c *conn, ops []op) {
			defer wg.Done()
			for j := range ops {
				r.do(c, &ops[j], false)
			}
		}(c, ops[i])
	}
	wg.Wait()
}

// step sends the connection's next op.
func (r *runner) step(c *conn, timed bool) {
	o := &c.ops[c.pos]
	c.pos = (c.pos + 1) % len(c.ops)
	r.do(c, o, timed)
}

// prime sends connection 0's priming writes one by one.
func (r *runner) prime() {
	for i := 0; i < r.in.prime; i++ {
		r.step(r.conns[0], false)
	}
}

// do sends o on c and accounts for its outcome.
func (r *runner) do(c *conn, o *op, timed bool) {
	c.attempted++
	id := int64(-1)
	if r.t.rec != nil {
		c.nextID++
		id = int64(c.id)<<40 | c.nextID
	}
	accepted := 0
	if o.ep == epValues || o.ep == epKeyed {
		accepted = len(r.in.sets[o.set])
	}
	start, end, err := c.send(r.t, o, id, accepted)
	if err != nil {
		c.failed++
		if len(c.failures) < 5 {
			c.failures = append(c.failures, fmt.Sprintf("%s %s: %v", o.ep, o.path, err))
		}
		return
	}
	if r.t.rec != nil {
		r.t.rec.add("client."+o.ep.String(), id, start, end)
	}
	switch o.ep {
	case epValues:
		c.ackSets[o.set]++
	case epKeyed:
		c.ackKeyed[o.set]++
		c.labelSeen[o.label] = true
	case epIngest:
		c.ackPayload[o.set]++
	}
	sm := sample{at: end.Sub(r.start), latency: end.Sub(start)}
	if o.ep.isWrite() {
		if timed {
			c.writes = append(c.writes, sm)
		}
		if r.writes.Add(1)%r.in.closeEvery == 0 {
			r.t.requestClose()
		}
	} else if timed {
		c.reads = append(c.reads, sm)
	}
}

// send makes one request and checks the reply's status and, for
// /values, that the accepted count is the batch's.
func (c *conn) send(t *tier, o *op, id int64, accepted int) (start, end time.Time, err error) {
	base := t.leafURL
	if o.to == toRoot {
		base = t.rootURL
	}
	method, want := http.MethodGet, http.StatusOK
	var body io.Reader
	if o.ep.isWrite() {
		method, body = http.MethodPost, bytes.NewReader(o.body)
		if o.ep == epIngest {
			want = http.StatusAccepted
		}
	}
	req, err := http.NewRequest(method, base+o.path, body)
	if err != nil {
		return start, end, err
	}
	if o.ctype != "" {
		req.Header.Set("Content-Type", o.ctype)
	}
	if id >= 0 {
		req.Header.Set(opHeader, strconv.FormatInt(id, 10))
	}
	start = time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		return start, end, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	_ = resp.Body.Close()
	end = time.Now()
	if err != nil {
		return start, end, err
	}
	if resp.StatusCode != want {
		return start, end, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(c.buf.Bytes()))
	}
	if o.ep == epValues || o.ep == epKeyed {
		if got, ok := acceptedCount(c.buf.Bytes()); !ok || got != accepted {
			return start, end, fmt.Errorf("acknowledged %q, want %d values", bytes.TrimSpace(c.buf.Bytes()), accepted)
		}
	}
	return start, end, nil
}

// acceptedCount reads N out of a /values reply {"accepted":N,…}.
func acceptedCount(reply []byte) (int, bool) {
	const key = `"accepted":`
	i := bytes.Index(reply, []byte(key))
	if i < 0 {
		return 0, false
	}
	rest := reply[i+len(key):]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	n, err := strconv.Atoi(string(rest[:j]))
	return n, err == nil
}

package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"github.com/ddsketch-go/ddsketch"
)

// config is one invocation of the benchmark.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	setups   int // set-ups per run; setup_s is their median
	sizes    sizes
	faults   faults
}

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
}

// pass is one set-up tier with its inputs, driven by one runner.
type pass struct {
	in    *inputs
	t     *tier
	r     *runner
	setup time.Duration
}

// setUp generates the inputs, builds the tier and warms it: what
// setup_s measures.
func setUp(cfg config, rec *recorder) (*pass, error) {
	start := time.Now()
	in, err := generate(cfg.workload, cfg.seed, cfg.sizes)
	if err != nil {
		return nil, err
	}
	if cfg.faults.mismatchedAlpha && len(in.payloads) > 0 {
		body, _, err := agentPayload(in.rawPayloads[0], 2*alpha, ddsketch.NativeCodec)
		if err != nil {
			return nil, err
		}
		for c := range in.conns {
			for i := range in.conns[c] {
				if o := &in.conns[c][i]; o.ep == epIngest && o.set == 0 {
					o.body, o.ctype = body, ddsketch.NativeCodec.ContentType()
				}
			}
		}
	}
	t, err := newTier(rec, cfg.faults, in.regSketches)
	if err != nil {
		return nil, err
	}
	p := &pass{in: in, t: t, r: newRunner(in, t)}
	p.r.prime()
	if err := t.flush(); err != nil {
		p.close()
		return nil, err
	}
	p.r.sendAll(in.fill)
	// Registry rotations happen in the warm-up: each adds an interval
	// slot to every live series, so the timed phase starts from the
	// ring shape it keeps.
	for k := 0; k <= in.rotations; k++ {
		if k > 0 {
			t.rotateRegistry()
		}
		p.r.phase(time.Time{}, cfg.sizes.warmOps/(in.rotations+1), false)
	}
	p.setup = time.Since(start)
	return p, nil
}

func (p *pass) close() {
	p.r.close()
	p.t.close()
}

// measurement is what one timed phase measured.
type measurement struct {
	metrics []metric
	// tails are the p99 latencies. They are printed but not in the
	// result line: host CPU steal moves them run to run by more than any
	// bound BENCHMARK.json may give (see README.md).
	tails   []metric
	correct bool

	attempted, failed int64
	failures          []string

	allocBytesPerWrite, allocsPerWrite, gcCycles, gcCPUFraction float64
}

func (m *measurement) get(name string) float64 {
	for _, x := range m.metrics {
		if x.name == name {
			return x.value
		}
	}
	return 0
}

var cpuMetrics = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}

func readCPUMetrics() (gc, total float64) {
	s := append([]metrics.Sample(nil), cpuMetrics...)
	metrics.Read(s)
	for i := range s {
		if s[i].Value.Kind() != metrics.KindFloat64 {
			return 0, 0
		}
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// maxSlices is how many equal slices the timed phase is cut into. Each
// rate, latency percentile and CPU figure is computed per slice and
// reported as the median over slices: a burst of contention from outside
// the process that covers fewer than half of the slices does not move
// the result, while a change to the program moves every slice. A
// percentile uses fewer, longer slices when needed to keep ten samples
// beyond it in each.
const maxSlices = 10

// measure runs the timed phase, settles the tier and checks it.
func (p *pass) measure(cfg config, setupS float64, w io.Writer) *measurement {
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, total0 := readCPUMetrics()
	p.t.setTimed(true)
	if p.t.rec != nil {
		p.t.rec.enabled.Store(true)
	}
	start := time.Now()
	p.r.start = start
	sliceLen := cfg.seconds / maxSlices
	// cpuAt[k] is the process CPU time at the start of slice k.
	cpuAt := make([]time.Duration, maxSlices+1)
	cpuAt[0] = cpuTime()
	background := make(chan struct{})
	go func() {
		defer close(background)
		for k := 1; k <= maxSlices; k++ {
			time.Sleep(time.Until(start.Add(sliceLen * time.Duration(k))))
			cpuAt[k] = cpuTime()
		}
	}()
	p.r.phase(start.Add(cfg.seconds), 0, true)
	<-background
	gc1, total1 := readCPUMetrics()
	runtime.ReadMemStats(&ms1)
	if p.t.rec != nil {
		p.t.rec.enabled.Store(false)
	}
	p.t.setTimed(false)

	m := &measurement{}
	var writes, reads []sample
	for _, c := range p.r.conns {
		writes = append(writes, c.writes...)
		reads = append(reads, c.reads...)
		m.attempted += c.attempted
		m.failed += c.failed
		m.failures = append(m.failures, c.failures...)
	}
	if err := p.t.flush(); err != nil {
		m.attempted++
		m.failed++
		m.failures = append(m.failures, err.Error())
	}
	failedChecks, checked := p.checks(w)
	m.attempted += int64(checked)
	m.failed += int64(len(failedChecks))
	for _, err := range failedChecks {
		m.failures = append(m.failures, err.Error())
	}
	m.correct = m.failed == 0

	fresh := p.freshness()
	fmt.Fprintf(w, "samples: %d writes, %d reads, %d intervals in %v\n", len(writes), len(reads), len(fresh), cfg.seconds)
	if len(writes) < 1000 || len(reads) < 1000 || len(fresh) < 100 {
		fmt.Fprintf(w, "warning: p99 needs 1000 samples and p90 100\n")
	}
	if n := len(writes); n > 0 {
		m.allocBytesPerWrite = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(n)
		m.allocsPerWrite = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
	}
	m.gcCycles = float64(ms1.NumGC - ms0.NumGC)
	if total1 > total0 {
		m.gcCPUFraction = (gc1 - gc0) / (total1 - total0)
	}

	ws := bySlice(writes, cfg.seconds, maxSlices)
	var rate, cpu []float64
	for k, s := range ws {
		rate = append(rate, float64(len(s))/sliceLen.Seconds())
		if len(s) > 0 {
			cpu = append(cpu, float64(cpuAt[k+1]-cpuAt[k])/1e3/float64(len(s)))
		}
	}
	fmt.Fprintf(w, "writes/s by slice: %.0f\n", rate)
	wp50, wp99 := slicedPercentile(writes, cfg.seconds, 0.5), slicedPercentile(writes, cfg.seconds, 0.99)
	rp50, rp99 := slicedPercentile(reads, cfg.seconds, 0.5), slicedPercentile(reads, cfg.seconds, 0.99)
	fp50, fp90 := slicedPercentile(fresh, cfg.seconds, 0.5), slicedPercentile(fresh, cfg.seconds, 0.9)

	// Live heap with everything the run holds: inputs and both servers.
	for _, c := range p.r.conns {
		c.writes, c.reads = nil, nil
	}
	runtime.GC()
	var heap runtime.MemStats
	runtime.ReadMemStats(&heap)
	runtime.KeepAlive(p)

	okRatio := 1.0
	if m.attempted > 0 {
		okRatio = 1 - float64(m.failed)/float64(m.attempted)
	}
	m.metrics = []metric{
		{"setup_s", setupS, "s"},
		{"writes_per_s", median(rate), "1/s"},
		{"write_p50_ms", median(wp50), "ms"},
		{"read_p50_ms", median(rp50), "ms"},
		{"freshness_p50_ms", median(fp50), "ms"},
		{"freshness_p90_ms", median(fp90), "ms"},
		{"cpu_us_per_write", median(cpu), "us"},
		{"heap_mb", float64(heap.HeapAlloc) / (1 << 20), "MB"},
		{"ok_ratio", okRatio, "ratio"},
	}
	m.tails = []metric{
		{"write_p99_ms", median(wp99), "ms"},
		{"read_p99_ms", median(rp99), "ms"},
	}
	return m
}

// bySlice cuts a phase of the given length into n equal slices and
// splits samples by the slice they completed in; samples that completed
// after the phase ended count in the last.
func bySlice(samples []sample, phase time.Duration, n int) [][]sample {
	out := make([][]sample, n)
	for _, s := range samples {
		k := min(max(int(s.at*time.Duration(n)/phase), 0), n-1)
		out[k] = append(out[k], s)
	}
	return out
}

// slicedPercentile returns each slice's latency p-quantile in
// milliseconds, with as many slices (up to maxSlices) as leave ten
// samples beyond the quantile in each on average.
func slicedPercentile(samples []sample, phase time.Duration, p float64) []float64 {
	n := min(maxSlices, max(1, int(float64(len(samples))*(1-p)/10)))
	var out []float64
	for _, s := range bySlice(samples, phase, n) {
		out = append(out, percentile(latenciesMs(s), p))
	}
	return out
}

// latenciesMs returns the samples' latencies in milliseconds, sorted.
func latenciesMs(samples []sample) []float64 {
	ms := make([]float64, len(samples))
	for i, s := range samples {
		ms[i] = float64(s.latency) / 1e6
	}
	sort.Float64s(ms)
	return ms
}

// freshness returns a sample for every interval closed in the timed
// phase: when it closed and the time from its close to the root's 2xx
// /ingest of it.
func (p *pass) freshness() []sample {
	p.t.mu.Lock()
	defer p.t.mu.Unlock()
	var fresh []sample
	for _, c := range p.t.closes {
		if c.timed && c.seq >= 1 && int(c.seq) <= len(p.t.rootAcks) {
			fresh = append(fresh, sample{at: c.at.Sub(p.r.start), latency: p.t.rootAcks[c.seq-1].Sub(c.at)})
		}
	}
	return fresh
}

package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ddsketch-go/ddsketch"
	"github.com/ddsketch-go/ddsketch/internal/ddserver"
	"github.com/ddsketch-go/ddsketch/mapping"
	"github.com/ddsketch-go/ddsketch/registry"
)

// span is one timed call at a layer boundary. Spans of one client
// request share its id; spans with no request have id -1.
type span struct {
	name       string
	id         int64
	start, end time.Time
}

func (s span) us() float64 { return float64(s.end.Sub(s.start)) / 1e3 }

// recorder keeps spans in memory while enabled.
type recorder struct {
	enabled atomic.Bool
	mu      sync.Mutex
	spans   []span
}

func newRecorder() *recorder { return &recorder{spans: make([]span, 0, 1<<16)} }

func (r *recorder) add(name string, id int64, start, end time.Time) {
	if !r.enabled.Load() {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{name: name, id: id, start: start, end: end})
	r.mu.Unlock()
}

// byName groups the recorded spans.
func (r *recorder) byName() map[string][]span {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := make(map[string][]span)
	for _, s := range r.spans {
		m[s.name] = append(m[s.name], s)
	}
	return m
}

// p50us is the median duration of spans in microseconds.
func p50us(spans []span) float64 {
	us := make([]float64, len(spans))
	for i, s := range spans {
		us[i] = s.us()
	}
	return median(us)
}

// busy is the summed duration of spans in seconds.
func busy(spans []span) float64 {
	var d time.Duration
	for _, s := range spans {
		d += s.end.Sub(s.start)
	}
	return d.Seconds()
}

// probeEndpoints sends probes for every leaf endpoint whose handler
// metric the traced phase left without spans, so each handler metric is
// measured on every workload. They run after the checks, on the same
// leaf; /values and /ingest probes carry probe.
func probeEndpoints(p *pass, spans map[string][]span, probe []float64) error {
	const n = 64
	probeSketch, _, err := agentPayload(probe, alpha, ddsketch.NativeCodec)
	if err != nil {
		return err
	}
	probes := []struct {
		name string
		o    op
	}{
		{"leaf.values", op{ep: epValues, path: "/values", body: formatSets([][]float64{probe})[0], ctype: "text/plain"}},
		{"leaf.ingest", op{ep: epIngest, path: "/ingest", body: probeSketch, ctype: ddsketch.NativeCodec.ContentType()}},
		{"leaf.quantile", op{ep: epQuantile, path: "/quantile?q=0.5,0.99"}},
		{"leaf.sketch", op{ep: epSketch, path: "/sketch"}},
		{"leaf.summary", op{ep: epSummary, path: "/summary"}},
	}
	c := p.r.conns[0]
	for _, pr := range probes {
		// The quantile metric reads the root's spans when the workload
		// queries the root.
		if len(spans[pr.name]) > 0 || (pr.name == "leaf.quantile" && len(spans["root.quantile"]) > 0) {
			continue
		}
		accepted := 0
		if pr.o.ep == epValues {
			accepted = len(probe)
		}
		for i := 0; i < n; i++ {
			c.nextID++
			if _, _, err := c.send(p.t, &pr.o, int64(c.id)<<40|c.nextID, accepted); err != nil {
				return fmt.Errorf("probe %s: %w", pr.name, err)
			}
		}
	}
	return nil
}

// replay times the library layers on the workload's own inputs through
// the public functions, on replicas configured like the servers.
type replay struct {
	addNsPerValue float64
	valuesAddUs   []float64 // per replayed /values batch: the handler's AddBatch
	drainUs       []float64
	mergeUs       []float64
	trailingUs    []float64
	encodeUs      map[string][]float64
	decodeUs      map[string][]float64
	bytes         map[string][]float64

	parseNs              []float64
	hotUs, coldUs        []float64
	rollIdxUs, rollAllUs []float64
	rotateUs             []float64
}

func newMapping() mapping.IndexMapping {
	m, err := mapping.NewLogarithmic(alpha)
	if err != nil {
		panic(err) // a constant α cannot be invalid
	}
	return m
}

// newAggregate returns a sharded, windowed sketch configured like a
// server's global aggregate.
func newAggregate(clock *benchClock) *ddsketch.WindowedSharded {
	sk, err := ddsketch.NewSketch(
		ddsketch.WithMapping(newMapping()),
		ddsketch.WithMaxBins(maxBins),
		ddsketch.WithSharding(0),
		ddsketch.WithWindow(leafInterval, leafWindows),
		ddsketch.WithClock(clock.Now),
	)
	if err != nil {
		panic(err) // constant options cannot be invalid
	}
	return sk.(*ddsketch.WindowedSharded)
}

func timeUs(f func()) float64 {
	start := time.Now()
	f()
	return float64(time.Since(start)) / 1e3
}

// runReplay replays the workload's inputs through the library. probe is
// the batch /values probes sent, replayed when the workload sends no
// unkeyed /values of its own.
func runReplay(in *inputs, probe []float64) (*replay, error) {
	rp := &replay{
		encodeUs: map[string][]float64{},
		decodeUs: map[string][]float64{},
		bytes:    map[string][]float64{},
	}
	clock := newBenchClock()
	leaf := newAggregate(clock)
	root := newAggregate(newBenchClock())

	// The batches the leaf's AddBatch sees, in connection 0's order; on
	// sketch-fanin, the agent values behind each payload.
	var batches [][]float64
	fanin := in.workload == "sketch-fanin"
	if fanin {
		batches = in.rawPayloads
	} else {
		for _, o := range in.conns[0] {
			if o.ep == epValues {
				batches = append(batches, in.sets[o.set])
			}
		}
	}
	batches = batches[:min(len(batches), 4096)]
	var addTotal time.Duration
	var addValues int
	every := int(in.closeEvery)
	if in.workload == "keyed-mixed" {
		every = max(every/readEvery, 1) // one write in readEvery is unkeyed
	}
	for i, b := range batches {
		start := time.Now()
		if err := leaf.AddBatch(b); err != nil {
			return nil, err
		}
		d := time.Since(start)
		addTotal += d
		addValues += len(b)
		if !fanin {
			rp.valuesAddUs = append(rp.valuesAddUs, float64(d)/1e3)
		}
		if (i+1)%every != 0 {
			continue
		}
		rp.drainUs = append(rp.drainUs, timeUs(leaf.Drain))
		interval := leaf.Trailing(1)
		clock.Advance(leafInterval)
		if fanin {
			continue
		}
		// The forwarder encodes each closed interval; the root decodes
		// and merges it.
		for _, codec := range ddsketch.Codecs() {
			var payload []byte
			var err error
			rp.encodeUs[codec.Name()] = append(rp.encodeUs[codec.Name()], timeUs(func() { payload, err = codec.Encode(interval) }))
			if err != nil {
				return nil, err
			}
			rp.bytes[codec.Name()] = append(rp.bytes[codec.Name()], float64(len(payload)))
			var decoded *ddsketch.DDSketch
			rp.decodeUs[codec.Name()] = append(rp.decodeUs[codec.Name()], timeUs(func() { decoded, err = codec.Decode(payload) }))
			if err != nil {
				return nil, err
			}
			if codec == ddsketch.NativeCodec {
				rp.mergeUs = append(rp.mergeUs, timeUs(func() { err = root.MergeWith(decoded) }))
				if err != nil {
					return nil, err
				}
			}
		}
	}
	if addValues > 0 {
		rp.addNsPerValue = float64(addTotal) / float64(addValues)
	}
	for len(rp.valuesAddUs) < 64 {
		var err error
		rp.valuesAddUs = append(rp.valuesAddUs, timeUs(func() { err = leaf.AddBatch(probe) }))
		if err != nil {
			return nil, err
		}
	}
	if fanin {
		// Agents' payloads are decoded and merged into the leaf; reads
		// encode the trailing aggregate.
		for p, body := range in.payloadBodies {
			codec, err := ddsketch.DetectCodec(body)
			if err != nil {
				return nil, err
			}
			var decoded *ddsketch.DDSketch
			rp.decodeUs[codec.Name()] = append(rp.decodeUs[codec.Name()], timeUs(func() { decoded, err = codec.Decode(body) }))
			if err != nil {
				return nil, err
			}
			rp.bytes[codec.Name()] = append(rp.bytes[codec.Name()], float64(len(body)))
			rp.mergeUs = append(rp.mergeUs, timeUs(func() { err = leaf.MergeWith(decoded) }))
			if err != nil {
				return nil, err
			}
			if (p+1)%8 == 0 {
				agg := leaf.Trailing(1 + p%leafWindows)
				for _, codec := range ddsketch.Codecs() {
					rp.encodeUs[codec.Name()] = append(rp.encodeUs[codec.Name()], timeUs(func() { _, err = codec.Encode(agg) }))
					if err != nil {
						return nil, err
					}
				}
			}
		}
	}
	for rep := 0; rep < 20; rep++ {
		for k := 1; k <= leafWindows; k++ {
			rp.trailingUs = append(rp.trailingUs, timeUs(func() { leaf.Trailing(k) }))
		}
	}
	return rp, replayRegistry(in, rp)
}

// replayRegistry replays keyed writes and roll-ups on a registry
// configured like the leaf's. Workloads without keyed traffic replay a
// small keyed sequence from the same seed.
func replayRegistry(in *inputs, rp *replay) error {
	keyed := in
	if len(in.labels) == 0 {
		var err error
		small := sizes{sets: 256, batch: 16, labels: 10_000, opsPerConn: 8192}
		if keyed, err = generate("keyed-mixed", in.seed, small); err != nil {
			return err
		}
	}
	clock := newBenchClock()
	budget := ddserver.DefaultConfig().RegistrySketches
	if keyed.regSketches > 0 {
		budget = keyed.regSketches
	}
	reg, err := registry.New(
		registry.WithMaxSketches(budget),
		registry.WithAdmissionThreshold(ddserver.DefaultConfig().RegistryAdmission),
		registry.WithSketchOptions(ddsketch.WithMapping(newMapping()), ddsketch.WithMaxBins(maxBins)),
		registry.WithKeyWindow(regWindows, regInterval, clock.Now),
	)
	if err != nil {
		return err
	}
	var ops []op
	for _, o := range keyed.conns[0] {
		if o.ep == epKeyed {
			ops = append(ops, o)
		}
	}
	if len(ops) > 20_000 {
		ops = ops[:20_000]
	}
	for i, o := range ops {
		if i > 0 && i%(len(ops)/4+1) == 0 {
			clock.Advance(regInterval)
			rp.rotateUs = append(rp.rotateUs, timeUs(reg.Rotate))
		}
		var ls registry.LabelSet
		start := time.Now()
		ls, err = registry.ParseLabelSet(keyed.labels[o.label])
		rp.parseNs = append(rp.parseNs, float64(time.Since(start)))
		if err != nil {
			return err
		}
		_, hot := reg.Get(ls, 1)
		d := timeUs(func() { err = reg.AddBatch(ls, keyed.sets[o.set]) })
		if err != nil {
			return err
		}
		if hot {
			rp.hotUs = append(rp.hotUs, d)
		} else {
			rp.coldUs = append(rp.coldUs, d)
		}
	}
	for s := 0; s < regServices; s++ {
		f, err := registry.ParseFilter(fmt.Sprintf("service=s%02d", s))
		if err != nil {
			return err
		}
		rp.rollIdxUs = append(rp.rollIdxUs, timeUs(func() { _, _, err = reg.RollUp(f, 0) }))
		if err != nil {
			return err
		}
	}
	for rep := 0; rep < 5; rep++ {
		rp.rollAllUs = append(rp.rollAllUs, timeUs(func() { _, _, err = reg.RollUp(registry.MatchAll(), 0) }))
		if err != nil {
			return err
		}
		rp.rotateUs = append(rp.rotateUs, timeUs(reg.Rotate))
	}
	return nil
}

// serverStats is the part of GET /stats the ledger reads.
type serverStats struct {
	Registry registry.Stats        `json:"registry"`
	Forward  ddserver.ForwardStats `json:"forward"`
}

func scrapeStats(base string) (serverStats, error) {
	var st serverStats
	resp, err := http.Get(base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /stats: HTTP %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// ledger computes the per-layer metrics of a traced pass.
func ledger(p *pass, spans map[string][]span, rp *replay, st serverStats, untraced, traced *measurement) []metric {
	// Client write spans matched to the leaf handler span of the same
	// request: the difference is HTTP and loopback overhead.
	handlers := map[int64]span{}
	for _, name := range []string{"leaf.values", "leaf.values_keyed", "leaf.ingest"} {
		for _, s := range spans[name] {
			if s.id >= 0 {
				handlers[s.id] = s
			}
		}
	}
	var overhead []float64
	var clientTotal, handlerTotal time.Duration
	for _, name := range []string{"client.values", "client.values_keyed", "client.ingest"} {
		for _, s := range spans[name] {
			clientTotal += s.end.Sub(s.start)
			if h, ok := handlers[s.id]; ok {
				handlerTotal += h.end.Sub(h.start)
				overhead = append(overhead, s.us()-h.us())
			}
		}
	}
	handlerShare := 0.0
	if clientTotal > 0 {
		handlerShare = float64(handlerTotal) / float64(clientTotal)
	}
	quantileSpans := spans["leaf.quantile"]
	if len(spans["root.quantile"]) > 0 {
		quantileSpans = spans["root.quantile"]
	}
	distinct := 0
	for l := range p.in.labels {
		for _, c := range p.r.conns {
			if c.labelSeen[l] {
				distinct++
				break
			}
		}
	}
	admitRatio := 0.0
	if distinct > 0 {
		admitRatio = float64(st.Registry.Admitted) / float64(distinct)
	}
	delivered := 0.0
	if st.Forward.Attempts > 0 {
		delivered = float64(st.Forward.Forwarded) / float64(st.Forward.Attempts)
	}
	// The /values handler metrics describe the workload's main kind of
	// /values write; its own work is what the replayed add leaves: the
	// global sketch's for unkeyed writes, the registry's for keyed.
	valuesSpans, addUs := spans["leaf.values"], rp.valuesAddUs
	if keyedSpans := spans["leaf.values_keyed"]; len(keyedSpans) > len(valuesSpans) {
		valuesSpans, addUs = keyedSpans, append(append([]float64(nil), rp.hotUs...), rp.coldUs...)
	}
	pct := func(traced, untraced float64) float64 {
		if untraced == 0 {
			return 0
		}
		return 100 * (traced - untraced) / untraced
	}
	m := []metric{
		{"http.overhead_p50_us", median(overhead), "us"},
		{"trace.handler_share", handlerShare, "ratio"},
		{"trace.overhead.writes_per_s_pct", pct(traced.get("writes_per_s"), untraced.get("writes_per_s")), "%"},
		{"trace.overhead.write_p50_pct", pct(traced.get("write_p50_ms"), untraced.get("write_p50_ms")), "%"},
		{"trace.overhead.cpu_us_per_write_pct", pct(traced.get("cpu_us_per_write"), untraced.get("cpu_us_per_write")), "%"},
		{"ddserver.values.p50_us", p50us(valuesSpans), "us"},
		{"ddserver.values.busy_s", busy(valuesSpans), "s"},
		{"ddserver.values.own_us_p50", p50us(valuesSpans) - median(addUs), "us"},
		{"ddserver.ingest.p50_us", p50us(spans["leaf.ingest"]), "us"},
		{"ddserver.quantile.p50_us", p50us(quantileSpans), "us"},
		{"ddserver.sketch.p50_us", p50us(spans["leaf.sketch"]), "us"},
		{"ddserver.summary.p50_us", p50us(spans["leaf.summary"]), "us"},
		{"ddserver.drain_loop.busy_s", busy(spans["drain_loop"]), "s"},
		{"ddserver.root_ingest.p50_us", p50us(spans["root.ingest"]), "us"},
		{"forward.attempts", float64(st.Forward.Attempts), "count"},
		{"forward.retries", float64(st.Forward.Retries), "count"},
		{"forward.shed", float64(st.Forward.Shed), "count"},
		{"forward.delivered_ratio", delivered, "ratio"},
		{"forward.spool_depth_max", float64(p.t.spoolMax), "count"},
		{"ddsketch.add_batch.ns_per_value", rp.addNsPerValue, "ns"},
		{"ddsketch.drain.us", median(rp.drainUs), "us"},
		{"ddsketch.merge.us", median(rp.mergeUs), "us"},
		{"ddsketch.trailing.us", median(rp.trailingUs), "us"},
		{"codec.native.encode_us", median(rp.encodeUs["native"]), "us"},
		{"codec.native.decode_us", median(rp.decodeUs["native"]), "us"},
		{"codec.datadog.encode_us", median(rp.encodeUs["datadog"]), "us"},
		{"codec.datadog.decode_us", median(rp.decodeUs["datadog"]), "us"},
		{"codec.native.bytes", median(rp.bytes["native"]), "B"},
		{"codec.datadog.bytes", median(rp.bytes["datadog"]), "B"},
		{"registry.parse_labels.ns", median(rp.parseNs), "ns"},
		{"registry.add_batch.hot_us", median(rp.hotUs), "us"},
		{"registry.add_batch.cold_us", median(rp.coldUs), "us"},
		{"registry.rollup_indexed.us", median(rp.rollIdxUs), "us"},
		{"registry.rollup_all.us", median(rp.rollAllUs), "us"},
		{"registry.rotate.us", median(rp.rotateUs), "us"},
		{"registry.admitted", float64(st.Registry.Admitted), "count"},
		{"registry.evicted", float64(st.Registry.Evicted), "count"},
		{"registry.live_keys", float64(st.Registry.LiveKeys), "count"},
		{"registry.size_bytes", float64(st.Registry.SizeBytes), "B"},
		{"registry.admit_ratio", admitRatio, "ratio"},
		{"go.alloc_bytes_per_write", untraced.allocBytesPerWrite, "B"},
		{"go.allocs_per_write", untraced.allocsPerWrite, "count"},
		{"go.gc_cycles", untraced.gcCycles, "count"},
		{"go.gc_cpu_fraction", untraced.gcCPUFraction, "ratio"},
	}
	return m
}

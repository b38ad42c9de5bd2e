package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"strconv"

	"github.com/ddsketch-go/ddsketch"
	"github.com/ddsketch-go/ddsketch/internal/datagen"
)

// endpoint names the server route an operation exercises. The writes
// come first, which isWrite relies on.
type endpoint int8

const (
	epValues   endpoint = iota // POST /values, unkeyed: the global plane
	epKeyed                    // POST /values?key=…: the keyed registry
	epIngest                   // POST /ingest: an encoded agent sketch
	epQuantile                 // GET /quantile
	epSketch                   // GET /sketch
	epSummary                  // GET /summary?filter=…
	numEndpoints
)

var endpointNames = [numEndpoints]string{"values", "values_keyed", "ingest", "quantile", "sketch", "summary"}

func (e endpoint) String() string { return endpointNames[e] }

func (e endpoint) isWrite() bool { return e <= epIngest }

// target is the server an operation is sent to.
type target int8

const (
	toLeaf target = iota
	toRoot
)

// op is one pre-built request of a connection's sequence. Nothing about
// it is formatted while the benchmark is timing.
type op struct {
	ep    endpoint
	to    target
	path  string // path and query
	body  []byte
	ctype string
	set   int32 // index into inputs.sets (values) or inputs.payloads (ingest); -1 for reads
	label int32 // keyed writes: index into the label universe; -1 otherwise
}

// inputs is everything a workload sends, generated from the seed before
// any server exists.
type inputs struct {
	workload string
	seed     uint64

	// sets are the value batches behind /values bodies, keyed or not.
	sets [][]float64
	// payloads are the agent sketches behind /ingest bodies, decoded the
	// way the server decodes them; rawPayloads are the values each was
	// built from.
	payloads      []*ddsketch.DDSketch
	rawPayloads   [][]float64
	payloadBodies [][]byte

	// labels is the keyed label universe (empty when unkeyed).
	labels []string

	conns [numConns][]op
	// fill are sent once, before the warm-up, to bring state to its
	// steady size (keyed-mixed: the registry at its sketch budget).
	fill [numConns][]op

	// prime is how many writes open connection 0's sequence; they are
	// sent one by one before the warm-up, so reads find data.
	prime int

	// closeEvery is the number of acknowledged writes between two leaf
	// interval closes.
	closeEvery int64
	// rotations is how many registry rotations the warm-up makes
	// (keyed-mixed only).
	rotations int
	// regSketches is the leaf registry's sketch budget.
	regSketches int
}

// sizes scales a workload; tests shrink it.
type sizes struct {
	sets        int // distinct value batches (or agent sketches)
	batch       int // values per batch
	keyedSets   int // global-values: distinct keyBatch-value batches for keyed writes
	labels      int // keyed label universe
	opsPerConn  int // pre-generated ops per connection; a connection cycles through them
	warmOps     int // ops per connection in the warm-up
	fill        int // distinct label sets written before the warm-up
	closeEvery  int // acknowledged writes between two leaf interval closes
	regSketches int // the leaf registry's sketch budget; 0 is the server's default
}

const (
	numConns    = 2
	readEvery   = 20 // one op in readEvery is a read
	alpha       = 0.01
	maxBins     = 2048
	regServices = 100 // distinct service= values: a service filter selects ~1% of label sets
	keyBatch    = 16  // values per keyed batch on global-values
	// hotServices are the services global-values' roll-ups filter on:
	// their most popular label sets are written often enough to outlive
	// the trickle's evictions.
	hotServices = 10
)

func defaultSizes(workload string) sizes {
	switch workload {
	case "global-values":
		// The keyed trickle runs under a 512-sketch budget, filled past it
		// in set-up, so its Zipf tail keeps evicting while the hot series
		// behind the service filters stay live. Every drain-loop tick
		// walks the registry (Rotate), at a cost that grows with the
		// budget; at 2,048 series that walk, not the pipeline, dominated
		// freshness.
		return sizes{sets: 1024, batch: 500, keyedSets: 512, labels: 100_000, opsPerConn: 16384, warmOps: 1000,
			fill: 600, closeEvery: 64, regSketches: 512}
	case "sketch-fanin":
		return sizes{sets: 256, batch: 1000, opsPerConn: 16384, warmOps: 1000, closeEvery: 64}
	case "keyed-mixed":
		// Every tick of the drain loop also walks the registry (Rotate),
		// so intervals close sparsely here: often enough for 100 per run,
		// not so often that the walk dominates.
		return sizes{sets: 4096, batch: 16, labels: 100_000, opsPerConn: 32768, warmOps: 2000, fill: 12_000, closeEvery: 1000}
	}
	return sizes{}
}

var workloadNames = []string{"global-values", "sketch-fanin", "keyed-mixed"}

// generate builds a workload's inputs from the seed.
func generate(workload string, seed uint64, sz sizes) (*inputs, error) {
	in := &inputs{workload: workload, seed: seed, prime: 1, closeEvery: int64(sz.closeEvery), regSketches: sz.regSketches}
	if workload == "keyed-mixed" {
		in.prime = regServices
	}
	rng := datagen.NewRNG(seed ^ 0x5eed0f0b5)
	switch workload {
	case "global-values":
		in.sets = splitSets(datagen.ParetoSeeded(sz.sets*sz.batch, seed), sz.batch)
		in.sets = append(in.sets, splitSets(datagen.Latency(sz.keyedSets*keyBatch, seed), keyBatch)...)
		bodies := formatSets(in.sets)
		kg := newKeyedGen(in, seed, sz.labels, bodies[sz.sets:], sz.sets)
		for c := range in.conns {
			in.conns[c] = make([]op, sz.opsPerConn)
			for i := range in.conns[c] {
				if rng.Intn(readEvery) == 0 && !in.priming(c, i) {
					// One read in four is a filtered roll-up of the keyed
					// trickle on the leaf; the rest query the root.
					if rng.Intn(4) == 0 {
						in.conns[c][i] = kg.read(rng, hotServices)
					} else {
						in.conns[c][i] = op{ep: epQuantile, to: toRoot, path: "/quantile?q=0.5,0.9,0.99", set: -1, label: -1}
					}
					continue
				}
				if rng.Intn(readEvery) == 0 && !in.priming(c, i) {
					// A trickle of keyed writes keeps the registry on the
					// HTTP path of this workload.
					in.conns[c][i] = kg.write(rng, -1)
					continue
				}
				s := rng.Intn(sz.sets)
				in.conns[c][i] = op{ep: epValues, path: "/values", body: bodies[s], ctype: "text/plain", set: int32(s), label: -1}
			}
		}
		kg.fill(rng, sz.fill)
	case "sketch-fanin":
		in.rawPayloads = splitSets(datagen.SpanSeeded(sz.sets*sz.batch, seed), sz.batch)
		bodies := make([][]byte, len(in.rawPayloads))
		ctypes := make([]string, len(in.rawPayloads))
		for p, values := range in.rawPayloads {
			// Half the agents ship the native format, half DataDog's.
			codec := ddsketch.NativeCodec
			if p%2 == 1 {
				codec = ddsketch.DataDogCodec
			}
			body, decoded, err := agentPayload(values, alpha, codec)
			if err != nil {
				return nil, err
			}
			bodies[p], ctypes[p] = body, codec.ContentType()
			in.payloadBodies = append(in.payloadBodies, body)
			in.payloads = append(in.payloads, decoded)
		}
		reads := 0
		for c := range in.conns {
			in.conns[c] = make([]op, sz.opsPerConn)
			for i := range in.conns[c] {
				if rng.Intn(readEvery) == 0 && !in.priming(c, i) {
					// Alternate trailing-window quantiles and exports in both formats.
					var path string
					ep := epQuantile
					switch reads % 4 {
					case 0, 2:
						// At least two intervals: the current one is empty
						// right after a close.
						path = "/quantile?q=0.5,0.99&window=" + strconv.Itoa(2+rng.Intn(leafWindows-1))
					case 1:
						ep, path = epSketch, "/sketch?format=native"
					case 3:
						ep, path = epSketch, "/sketch?format=datadog"
					}
					reads++
					in.conns[c][i] = op{ep: ep, path: path, set: -1, label: -1}
					continue
				}
				p := rng.Intn(len(bodies))
				in.conns[c][i] = op{ep: epIngest, path: "/ingest", body: bodies[p], ctype: ctypes[p], set: int32(p), label: -1}
			}
		}
	case "keyed-mixed":
		in.sets = splitSets(datagen.Latency(sz.sets*sz.batch, seed), sz.batch)
		bodies := formatSets(in.sets)
		kg := newKeyedGen(in, seed, sz.labels, bodies, 0)
		for c := range in.conns {
			in.conns[c] = make([]op, sz.opsPerConn)
			for i := range in.conns[c] {
				if rng.Intn(readEvery) == 0 && !in.priming(c, i) {
					services := regServices
					if rng.Intn(1000) == 0 {
						services = 0
					}
					in.conns[c][i] = kg.read(rng, services)
					continue
				}
				if rng.Intn(readEvery) == 0 && !in.priming(c, i) {
					// A trickle of unkeyed writes keeps the leaf→root path
					// (and so freshness) measured on this workload too.
					s := rng.Intn(len(bodies))
					in.conns[c][i] = op{ep: epValues, path: "/values", body: bodies[s], ctype: "text/plain", set: int32(s), label: -1}
					continue
				}
				label := -1
				if in.priming(c, i) {
					// Open with one write to the most popular set of each
					// service, so every service filter matches a live series.
					label = i
				}
				in.conns[c][i] = kg.write(rng, label)
			}
		}
		kg.fill(rng, sz.fill)
		in.rotations = 2
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	return in, nil
}

// keyedGen draws keyed /values writes over a label universe with Zipf
// popularity, and filtered /summary roll-ups of them.
type keyedGen struct {
	in       *inputs
	paths    []string // /values?key=… for each label set
	zipf     *rand.Zipf
	bodies   [][]byte // the keyed batches' bodies
	firstSet int      // index in in.sets of bodies[0]
}

// newKeyedGen sets up in's label universe of n sets; keyed writes send
// one of bodies, which are in.sets[firstSet:] formatted.
func newKeyedGen(in *inputs, seed uint64, n int, bodies [][]byte, firstSet int) *keyedGen {
	in.labels = labelUniverse(n)
	g := &keyedGen{in: in, paths: make([]string, n), bodies: bodies, firstSet: firstSet}
	for i, l := range in.labels {
		g.paths[i] = "/values?key=" + url.QueryEscape(l)
	}
	// Zipf popularity over label sets: rank i is label set i.
	g.zipf = rand.NewZipf(rand.New(rand.NewSource(int64(seed))), 1.1, 1, uint64(n-1))
	return g
}

// write returns a keyed write to label set l, or to a Zipf-drawn one
// when l is negative.
func (g *keyedGen) write(rng *datagen.RNG, l int) op {
	if l < 0 {
		l = int(g.zipf.Uint64())
	}
	b := rng.Intn(len(g.bodies))
	return op{ep: epKeyed, path: g.paths[l], body: g.bodies[b], ctype: "text/plain", set: int32(g.firstSet + b), label: int32(l)}
}

// read returns a roll-up of the label sets of one of the first services
// services (each ~1% of the universe), or of every set when services is
// 0.
func (g *keyedGen) read(rng *datagen.RNG, services int) op {
	filter := "*"
	if services > 0 {
		filter = fmt.Sprintf("service=s%02d", rng.Intn(services))
	}
	return op{ep: epSummary, path: "/summary?filter=" + url.QueryEscape(filter), set: -1, label: -1}
}

// fill adds writes to n distinct label sets to in.fill, least popular
// first, so that the hot sets are the most recent: sent before the
// warm-up, they bring the registry past its sketch budget and every
// service filter matches a live series.
func (g *keyedGen) fill(rng *datagen.RNG, n int) {
	n = min(n, len(g.paths))
	for j := 0; j < n; j++ {
		g.in.fill[j%numConns] = append(g.in.fill[j%numConns], g.write(rng, n-1-j))
	}
}

// priming reports whether op i of connection c is one of the priming
// writes.
func (in *inputs) priming(c, i int) bool { return c == 0 && i < in.prime }

// splitSets cuts values into consecutive batches of n.
func splitSets(values []float64, n int) [][]float64 {
	sets := make([][]float64, 0, len(values)/n)
	for len(values) >= n {
		sets = append(sets, values[:n:n])
		values = values[n:]
	}
	return sets
}

// formatSets renders each batch as a /values body at full float
// precision, so the server parses exactly the values the checks use.
func formatSets(sets [][]float64) [][]byte {
	bodies := make([][]byte, len(sets))
	for i, set := range sets {
		var b []byte
		for j, v := range set {
			if j > 0 {
				b = append(b, ' ')
			}
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
		}
		bodies[i] = b
	}
	return bodies
}

// agentPayload sketches values the way an agent would and encodes the
// sketch with codec. It also returns the payload decoded, which is what
// the server merges.
func agentPayload(values []float64, a float64, codec ddsketch.Codec) ([]byte, *ddsketch.DDSketch, error) {
	sk, err := ddsketch.NewCollapsing(a, maxBins)
	if err != nil {
		return nil, nil, err
	}
	if err := sk.AddBatch(values); err != nil {
		return nil, nil, err
	}
	body, err := codec.Encode(sk)
	if err != nil {
		return nil, nil, err
	}
	decoded, err := codec.Decode(body)
	if err != nil {
		return nil, nil, err
	}
	return body, decoded, nil
}

// labelUniverse returns n distinct label sets. Set i has service
// s(i mod 100), so each service filter selects 1% of the universe and
// the most popular sets cover every service.
func labelUniverse(n int) []string {
	labels := make([]string, n)
	for i := range labels {
		labels[i] = fmt.Sprintf("host=h%06d,route=r%02d,service=s%02d", i, (i/regServices)%50, i%regServices)
	}
	return labels
}

// Command e2ebench is the repository's end-to-end benchmark. In one
// process it stands up the internal/ddserver leaf→root tier on loopback
// listeners, drives it over HTTP with two closed-loop connections
// replaying operations generated from --seed, checks that the tier's
// answers are correct, and prints every end-to-end metric by name and
// unit. With --trace 1 it also makes a traced pass on a fresh tier and
// prints the per-layer ledger instead, with the tracing overhead.
//
// The last line of standard output is one JSON object (with --workload
// all, one follows each workload's tables):
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, …}}
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash e2ebench/run.sh --workload global-values --seed 1 --seconds 20 --trace 0
//
// --spread N runs the workload N times in each of two sets, in child
// processes, and prints each metric's median and quartiles per set, and
// how far the second set's median moved from the first's, against the
// bounds in ./BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"github.com/ddsketch-go/ddsketch/internal/datagen"
)

func main() {
	workload := flag.String("workload", "global-values", "workload: global-values, sketch-fanin, keyed-mixed, or all to run each in turn")
	seed := flag.Uint64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 adds a traced pass and prints the per-layer metrics")
	spread := flag.Int("spread", 0, "run the workload this many times in each of two sets and print each metric's spread")
	flag.Parse()
	if !(*seconds > 0) {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be positive")
		os.Exit(2)
	}

	if *spread > 0 {
		if err := runSpread(os.Stdout, *workload, *spread, *seconds, *trace); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(1)
		}
		return
	}
	workloads := []string{*workload}
	if *workload == "all" {
		workloads = workloadNames
	}
	for _, w := range workloads {
		cfg := config{
			workload: w,
			seed:     *seed,
			seconds:  time.Duration(*seconds * float64(time.Second)),
			trace:    *trace == 1,
			setups:   5,
			sizes:    defaultSizes(w),
		}
		res, err := execute(cfg, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(1)
		}
		line, err := res.json()
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(1)
		}
		fmt.Println(line)
		runtime.GC()
	}
}

// result is what one invocation reports.
type result struct {
	correct           bool
	attempted, failed int64
	metrics           []metric
}

func (r *result) json() (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return "", fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		ms[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
	return string(b), err
}

// execute runs one invocation: cfg.setups set-ups (setup_s is their
// median), an untraced timed phase on the last, and with tracing a
// traced phase on a fresh tier.
func execute(cfg config, w io.Writer) (*result, error) {
	fmt.Fprintf(w, "workload %s, seed %d, %v timed, %d connections, GOMAXPROCS %d\n",
		cfg.workload, cfg.seed, cfg.seconds, numConns, runtime.GOMAXPROCS(0))
	var p *pass
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		if p != nil {
			p.close()
			runtime.GC()
		}
		var err error
		if p, err = setUp(cfg, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, p.setup.Seconds())
	}
	untraced := p.measure(cfg, median(setups), w)
	p.close()
	res := &result{correct: untraced.correct, attempted: untraced.attempted, failed: untraced.failed, metrics: untraced.metrics}
	printFailures(w, untraced)
	if !cfg.trace {
		printMetrics(w, "end-to-end", untraced.metrics, nil)
		printMetrics(w, "tail latency, not in the result line", untraced.tails, nil)
		return res, nil
	}

	runtime.GC()
	rec := newRecorder()
	tp, err := setUp(cfg, rec)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	defer tp.close()
	traced := tp.measure(cfg, tp.setup.Seconds(), w)
	printFailures(w, traced)
	probe := datagen.ParetoSeeded(500, cfg.seed+1)
	rec.enabled.Store(true)
	err = probeEndpoints(tp, rec.byName(), probe)
	rec.enabled.Store(false)
	if err != nil {
		return nil, err
	}
	st, err := scrapeStats(tp.t.leafURL)
	if err != nil {
		return nil, fmt.Errorf("scraping leaf /stats: %w", err)
	}
	rp, err := runReplay(tp.in, probe)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	printMetrics(w, "end-to-end, untraced vs traced", untraced.metrics, traced.metrics)
	printMetrics(w, "tail latency, not in the result line", untraced.tails, traced.tails)
	res.metrics = ledger(tp, rec.byName(), rp, st, untraced, traced)
	printMetrics(w, "per-layer (traced pass)", res.metrics, nil)
	res.correct = res.correct && traced.correct
	res.attempted += traced.attempted
	res.failed += traced.failed
	return res, nil
}

func printFailures(w io.Writer, m *measurement) {
	for _, f := range m.failures {
		fmt.Fprintln(w, "FAILED:", f)
	}
}

// printMetrics prints a table; with other, a second column and the
// relative difference.
func printMetrics(w io.Writer, title string, ms, other []metric) {
	fmt.Fprintf(w, "-- %s\n", title)
	for i, m := range ms {
		if other == nil {
			fmt.Fprintf(w, "%-36s %14.6g %s\n", m.name, m.value, m.unit)
			continue
		}
		diff := 0.0
		if m.value != 0 {
			diff = 100 * (other[i].value - m.value) / m.value
		}
		fmt.Fprintf(w, "%-36s %14.6g %14.6g %-6s %+7.1f%%\n", m.name, m.value, other[i].value, m.unit, diff)
	}
}

package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/ddsketch-go/ddsketch"
	"github.com/ddsketch-go/ddsketch/internal/datagen"
	"github.com/ddsketch-go/ddsketch/internal/exact"
)

// smallConfig is a scaled-down run of workload: same code paths, small
// inputs, a short timed phase.
func smallConfig(workload string, trace bool) config {
	sz := map[string]sizes{
		"global-values": {sets: 16, batch: 50, keyedSets: 16, labels: 2000, opsPerConn: 256, warmOps: 20, fill: 300, closeEvery: 16, regSketches: 256},
		"sketch-fanin":  {sets: 8, batch: 100, opsPerConn: 256, warmOps: 20, closeEvery: 16},
		"keyed-mixed":   {sets: 64, batch: 16, labels: 2000, opsPerConn: 512, warmOps: 150, fill: 500, closeEvery: 16},
	}[workload]
	return config{workload: workload, seed: 7, seconds: 300 * time.Millisecond, trace: trace, setups: 2, sizes: sz}
}

func metricValue(t *testing.T, res *result, name string) float64 {
	t.Helper()
	for _, m := range res.metrics {
		if m.name == name {
			return m.value
		}
	}
	t.Fatalf("metric %s missing", name)
	return 0
}

func TestScaledDownWorkloadsPassEveryCheck(t *testing.T) {
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			res, err := execute(smallConfig(w, trace), io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.correct || res.failed != 0 || res.attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d", w, trace, res.correct, res.failed, res.attempted)
			}
			if _, err := res.json(); err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !trace {
				if ok := metricValue(t, res, "ok_ratio"); ok != 1 {
					t.Errorf("%s: ok_ratio %v, want 1", w, ok)
				}
				for _, name := range []string{"writes_per_s", "write_p50_ms", "read_p50_ms", "freshness_p50_ms", "cpu_us_per_write", "heap_mb", "setup_s"} {
					if v := metricValue(t, res, name); !(v > 0) {
						t.Errorf("%s: %s = %v, want > 0", w, name, v)
					}
				}
			} else if w == "global-values" {
				// The keyed trickle reaches the leaf's registry over HTTP:
				// its budget fills and evicts, and roll-ups are served.
				for _, name := range []string{"registry.admitted", "registry.evicted", "registry.live_keys", "registry.size_bytes", "ddserver.summary.p50_us"} {
					if v := metricValue(t, res, name); !(v > 0) {
						t.Errorf("%s: %s = %v, want > 0", w, name, v)
					}
				}
			}
		}
	}
}

func TestDroppedIntervalFailsConvergence(t *testing.T) {
	cfg := smallConfig("global-values", false)
	cfg.faults.dropRootIngest = 3
	res, err := execute(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.correct || res.failed == 0 || metricValue(t, res, "ok_ratio") >= 1 {
		t.Fatalf("a dropped interval passed: correct=%v failed=%d", res.correct, res.failed)
	}
}

func TestMismatchedAlphaSketchShowsInFailedRatio(t *testing.T) {
	cfg := smallConfig("sketch-fanin", false)
	cfg.faults.mismatchedAlpha = true
	var out strings.Builder
	res, err := execute(cfg, &out)
	if err != nil {
		t.Fatal(err)
	}
	if res.correct || metricValue(t, res, "ok_ratio") >= 1 {
		t.Fatalf("mismatched-α payloads passed: correct=%v failed=%d", res.correct, res.failed)
	}
	if !strings.Contains(out.String(), "HTTP 409") {
		t.Fatalf("no 409 reported:\n%s", out.String())
	}
}

func TestRollupCountOffByOneFails(t *testing.T) {
	for _, w := range []string{"global-values", "keyed-mixed"} {
		cfg := smallConfig(w, false)
		cfg.faults.rollupOffset = 1
		res, err := execute(cfg, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if res.correct || res.failed == 0 {
			t.Fatalf("%s: a roll-up count off by one passed: correct=%v failed=%d", w, res.correct, res.failed)
		}
	}
}

func TestCheckConvergenceIsExact(t *testing.T) {
	if _, err := checkConvergence(1000, 100, 900); err != nil {
		t.Fatalf("exact convergence rejected: %v", err)
	}
	if _, err := checkConvergence(1000, 100, 899); err == nil {
		t.Fatal("shortfall accepted")
	}
	dup, err := checkConvergence(1000, 100, 950)
	if err == nil || dup != 50 {
		t.Fatalf("overshoot: duplicate %v, err %v; want 50 and an error", dup, err)
	}
}

func TestWeightedQuantilesMatchExact(t *testing.T) {
	sets := splitSets(datagen.ParetoSeeded(300, 3), 30)
	mult := []int64{0, 1, 2, 5, 1, 0, 3, 1, 1, 7}
	var all []float64
	for i, set := range sets {
		for k := int64(0); k < mult[i]; k++ {
			all = append(all, set...)
		}
	}
	qs := []float64{0, 0.1, 0.5, 0.9, 0.99, 1}
	want := exact.Quantiles(all, qs)
	got := weightedQuantiles(sets, mult, qs)
	for i := range qs {
		if got[i] != want[i] {
			t.Errorf("q=%v: got %v, exact %v", qs[i], got[i], want[i])
		}
	}
}

func TestCheckBinsDetectsAChangedBin(t *testing.T) {
	a, err := ddsketch.NewCollapsing(alpha, maxBins)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AddBatch(datagen.SpanSeeded(1000, 1)); err != nil {
		t.Fatal(err)
	}
	b := a.Copy()
	if err := checkBins(a, b); err != nil {
		t.Fatalf("identical sketches differ: %v", err)
	}
	if err := b.Add(1); err != nil {
		t.Fatal(err)
	}
	if err := checkBins(a, b); err == nil {
		t.Fatal("an added value went unnoticed")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

// TestBenchmarkJSONNamesEveryMetric keeps BENCHMARK.json and the
// metrics the benchmark prints in step.
func TestBenchmarkJSONNamesEveryMetric(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, err := generate(w.Name, 1, smallConfig(w.Name, false).sizes); err != nil {
			t.Errorf("BENCHMARK.json workload %s: %v", w.Name, err)
		}
	}
	compare := func(kind string, listed []struct{ Name, Unit string }, printed []metric) {
		want := map[string]string{}
		for _, m := range printed {
			want[m.name] = m.unit
		}
		got := map[string]string{}
		for _, m := range listed {
			got[m.Name] = m.Unit
		}
		var names []string
		for n := range want {
			names = append(names, n)
		}
		for n := range got {
			if _, ok := want[n]; !ok {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			if got[n] != want[n] {
				t.Errorf("%s metric %s: BENCHMARK.json unit %q, printed %q", kind, n, got[n], want[n])
			}
		}
	}
	res, err := execute(smallConfig("global-values", true), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	compare("per_layer", spec.PerLayer, res.metrics)
	res, err = execute(smallConfig("global-values", false), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	compare("end_to_end", spec.EndToEnd, res.metrics)
}

func TestResultJSONRejectsNonFinite(t *testing.T) {
	r := &result{metrics: []metric{{"x", math.NaN(), "ms"}}}
	if _, err := r.json(); err == nil {
		t.Fatal("NaN metric encoded")
	}
}

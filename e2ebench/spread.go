package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runResult is one child run's result line.
type runResult struct {
	Correct bool `json:"correct"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// benchmarkSpec is the part of BENCHMARK.json spread mode reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// spreadSets is how many sets of runs spread mode compares.
const spreadSets = 2

// runSpread runs the workload n times in each of spreadSets sets, each
// run a child process with its own seed, and prints per metric each
// set's median and quartile spread and how far the second set's median
// moved from the first's, against the bound BENCHMARK.json gives it.
func runSpread(w io.Writer, workload string, n int, seconds float64, trace int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := make([]map[string][]float64, spreadSets)
	for s := range values {
		values[s] = map[string][]float64{}
		for i := 0; i < n; i++ {
			seed := 1 + s*n + i
			cmd := exec.Command(self, "--workload", workload, "--seed", strconv.Itoa(seed),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
			var out bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("set %d seed %d: %w", s+1, seed, err)
			}
			res, err := lastResult(out.Bytes())
			if err != nil {
				return fmt.Errorf("set %d seed %d: %w", s+1, seed, err)
			}
			if !res.Correct {
				fmt.Fprintf(w, "set %d seed %d: INCORRECT\n", s+1, seed)
			}
			for name, m := range res.Metrics {
				values[s][name] = append(values[s][name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "spread: set %d run %d/%d done\n", s+1, i+1, n)
		}
	}
	bounds := map[string]float64{}
	better := map[string]string{}
	if b, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var spec benchmarkSpec
		if err := json.Unmarshal(b, &spec); err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
		for _, m := range spec.EndToEnd {
			bounds[m.Name], better[m.Name] = m.Bound, m.Better
		}
	}
	names := make([]string, 0, len(values[0]))
	for name := range values[0] {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s: %d runs per set, %d sets; spread = (q3−q1)/median; shift = second set's median vs the first's, + is worse\n", workload, n, spreadSets)
	for _, name := range names {
		fmt.Fprintf(w, "%-36s", name)
		first := median(values[0][name])
		for s := range values {
			med := median(values[s][name])
			q1, q3 := quartiles(values[s][name])
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			fmt.Fprintf(w, "  med %-11.5g q1 %-11.5g q3 %-11.5g spread %6.3f", med, q1, q3, spread)
		}
		if bound, ok := bounds[name]; ok && first != 0 {
			shift := (median(values[spreadSets-1][name]) - first) / first
			if better[name] == "higher" {
				shift = -shift
			}
			fmt.Fprintf(w, "  shift %+6.3f bound %.2f", shift, bound)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// lastResult parses the JSON result on the last non-empty line.
func lastResult(out []byte) (runResult, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	var res runResult
	if err := json.Unmarshal(last, &res); err != nil {
		return res, fmt.Errorf("parsing result line %q: %w", last, err)
	}
	return res, nil
}

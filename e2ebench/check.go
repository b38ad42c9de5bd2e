package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"

	"github.com/ddsketch-go/ddsketch"
)

// checkQs are the quantiles the accuracy checks compare.
var checkQs = []float64{0.5, 0.9, 0.99}

// checkConvergence holds the root to exactly what was acknowledged
// minus the weight the leaf counted as shed. The benchmark injects no
// faults, so overshoot (duplicate weight) is as much a defect as a
// shortfall. It returns the duplicate weight it saw.
func checkConvergence(acked, shed, root float64) (duplicate float64, err error) {
	want := acked - shed
	switch {
	case root < want:
		return 0, fmt.Errorf("root short: count %.0f < acknowledged %.0f − shed %.0f (missing %.0f)", root, acked, shed, want-root)
	case root > want:
		return root - want, fmt.Errorf("root overshoot: count %.0f > acknowledged %.0f − shed %.0f (duplicate weight %.0f)", root, acked, shed, root-want)
	}
	return 0, nil
}

// checkCount holds a roll-up count to the acknowledged weight exactly.
func checkCount(what string, got, want float64) error {
	if got != want {
		return fmt.Errorf("%s count %.0f, want exactly %.0f acknowledged", what, got, want)
	}
	return nil
}

// weightedQuantiles returns the exact lower quantiles — internal/exact's
// definition, the value of rank ⌊1 + q(n−1)⌋ — of the multiset holding
// sets[i] mult[i] times, without materializing it.
func weightedQuantiles(sets [][]float64, mult []int64, qs []float64) []float64 {
	type wv struct {
		v float64
		w int64
	}
	var all []wv
	var n int64
	for i, set := range sets {
		if mult[i] == 0 {
			continue
		}
		for _, v := range set {
			all = append(all, wv{v, mult[i]})
		}
		n += mult[i] * int64(len(set))
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	out := make([]float64, len(qs))
	for k, q := range qs {
		if n == 0 {
			out[k] = math.NaN()
			continue
		}
		rank := int64(math.Floor(1 + q*float64(n-1)))
		rank = min(max(rank, 1), n)
		var cum int64
		for _, x := range all {
			if cum += x.w; cum >= rank {
				out[k] = x.v
				break
			}
		}
	}
	return out
}

// checkAccuracy holds each estimate within α of the exact quantile.
func checkAccuracy(what string, got, exact []float64) error {
	for i, q := range checkQs {
		if rel := math.Abs(got[i]-exact[i]) / math.Abs(exact[i]); !(rel <= alpha*(1+1e-9)) {
			return fmt.Errorf("%s p%g = %g, exact %g: relative error %.4g exceeds α = %g", what, 100*q, got[i], exact[i], rel, alpha)
		}
	}
	return nil
}

// checkBins holds got bin-identical to want: the same bins with the same
// counts, the same count, min and max.
func checkBins(got, want *ddsketch.DDSketch) error {
	type bin struct{ v, c float64 }
	bins := func(s *ddsketch.DDSketch) []bin {
		var bs []bin
		s.ForEach(func(v, c float64) bool {
			bs = append(bs, bin{v, c})
			return false
		})
		return bs
	}
	gb, wb := bins(got), bins(want)
	if len(gb) != len(wb) {
		return fmt.Errorf("root has %d bins, local merge %d", len(gb), len(wb))
	}
	for i := range gb {
		if gb[i] != wb[i] {
			return fmt.Errorf("bin %d: root %v×%v, local merge %v×%v", i, gb[i].v, gb[i].c, wb[i].v, wb[i].c)
		}
	}
	if got.Count() != want.Count() {
		return fmt.Errorf("root count %v, local merge %v", got.Count(), want.Count())
	}
	gmin, _ := got.Min()
	wmin, _ := want.Min()
	gmax, _ := got.Max()
	wmax, _ := want.Max()
	if gmin != wmin || gmax != wmax {
		return fmt.Errorf("root [min, max] = [%v, %v], local merge [%v, %v]", gmin, gmax, wmin, wmax)
	}
	return nil
}

// summaryReply is a GET /summary response.
type summaryReply struct {
	Summary ddsketch.Summary `json:"summary"`
}

func getJSON(url string, into any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: HTTP %d: %s", url, resp.StatusCode, body)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// quantileValues lists a summary's estimates in checkQs order.
func quantileValues(s ddsketch.Summary) []float64 {
	out := make([]float64, len(s.Quantiles))
	for i, q := range s.Quantiles {
		out[i] = q.Value
	}
	return out
}

// checks runs the workload's correctness checks after the tier settled
// and returns every failure and how many checks it made.
func (p *pass) checks(w io.Writer) (failed []error, checked int) {
	fail := func(err error) {
		checked++
		if err != nil {
			failed = append(failed, err)
		}
	}
	in := p.in
	sumConns := func(pick func(*conn) []int64, n int) []int64 {
		total := make([]int64, n)
		for _, c := range p.r.conns {
			for i, v := range pick(c) {
				total[i] += v
			}
		}
		return total
	}
	ackSets := sumConns(func(c *conn) []int64 { return c.ackSets }, len(in.sets))
	ackKeyed := sumConns(func(c *conn) []int64 { return c.ackKeyed }, len(in.sets))
	ackPayload := sumConns(func(c *conn) []int64 { return c.ackPayload }, len(in.payloads))

	var acked, keyed float64
	for i, set := range in.sets {
		acked += float64(ackSets[i]) * float64(len(set))
		keyed += float64(ackKeyed[i]) * float64(len(set))
	}
	for i, pl := range in.payloads {
		acked += float64(ackPayload[i]) * pl.Count()
	}

	// Every workload feeds the global plane, so the root must converge.
	var root summaryReply
	err := getJSON(p.t.rootURL+"/summary?q=0.5,0.9,0.99", &root)
	fail(err)
	if err != nil {
		return failed, checked
	}
	fs, _ := p.t.leaf.ForwardStats()
	dup, err := checkConvergence(acked, fs.ShedWeight, root.Summary.Count)
	fail(err)
	fmt.Fprintf(w, "convergence: acknowledged %.0f, shed %.0f, duplicate %.0f, root %.0f\n", acked, fs.ShedWeight, dup, root.Summary.Count)

	switch in.workload {
	case "global-values":
		fail(checkAccuracy("root", quantileValues(root.Summary), weightedQuantiles(in.sets, ackSets, checkQs)))
	case "sketch-fanin":
		want, err := ddsketch.NewSketch(ddsketch.WithMapping(newMapping()), ddsketch.WithMaxBins(maxBins))
		if err != nil {
			fail(err)
			break
		}
		local := want.(*ddsketch.DDSketch)
		for i, pl := range in.payloads {
			for k := int64(0); k < ackPayload[i]; k++ {
				if err := local.MergeWith(pl); err != nil {
					fail(err)
					return failed, checked
				}
			}
		}
		got, err := fetchSketch(p.t.rootURL + "/sketch?format=native")
		if err == nil {
			err = checkBins(got, local)
		}
		fail(err)
	}
	if len(in.labels) > 0 {
		// The keyed plane: every keyed value acknowledged is in a live
		// series or in overflow, which filter=* rolls up.
		var all summaryReply
		err := getJSON(p.t.leafURL+"/summary?filter=*&q=0.5,0.9,0.99", &all)
		fail(err)
		if err == nil {
			fail(checkCount("filter=* roll-up", all.Summary.Count+p.t.faults.rollupOffset, keyed))
			fail(checkAccuracy("filter=* roll-up", quantileValues(all.Summary), weightedQuantiles(in.sets, ackKeyed, checkQs)))
		}
	}
	return failed, checked
}

// fetchSketch GETs and decodes an exported sketch.
func fetchSketch(url string) (*ddsketch.DDSketch, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", url, resp.StatusCode, body)
	}
	return ddsketch.NativeCodec.Decode(body)
}

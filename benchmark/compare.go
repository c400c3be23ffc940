package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// benchmarkFile is BENCHMARK.json, less the command that runs the program.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []fileMetric `json:"end_to_end"`
	PerLayer []fileMetric `json:"per_layer"`
}

// fileMetric is one metric of BENCHMARK.json; per-layer metrics have no
// bound.
type fileMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var b benchmarkFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// compareDirs prints one row per workload and metric for two directories
// of -out results: each side's median and quartiles, the pairs (runs with
// the same seed on both sides) the change won, and a verdict.
func compareDirs(w io.Writer, specPath, parentDir, changeDir string) error {
	spec, err := readBenchmarkFile(specPath)
	if err != nil {
		return err
	}
	parent, err := loadRecords(parentDir)
	if err != nil {
		return err
	}
	change, err := loadRecords(changeDir)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\twins/pairs\tverdict")
	row := func(workload, metric string, trace int, better string, bound float64, hasBound bool) {
		p, c := parent.values(workload, metric, trace), change.values(workload, metric, trace)
		if len(p) == 0 && len(c) == 0 {
			return
		}
		wins, losses, pairs := 0, 0, 0
		for seed, pv := range p {
			if cv, ok := c[seed]; ok {
				pairs++
				switch {
				case improves(pv, cv, better):
					wins++
				case improves(cv, pv, better):
					losses++
				}
			}
		}
		pv, cv := sortedValues(p), sortedValues(c)
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d/%d\t%s\n", workload, metric, summary(pv), summary(cv),
			wins, pairs, verdict(pv, cv, wins, losses, pairs, better, bound, hasBound))
	}
	for _, sp := range workloads {
		for _, m := range spec.EndToEnd {
			row(sp.name, m.Name, 0, m.Better, m.Bound, true)
		}
		for _, m := range spec.PerLayer {
			row(sp.name, m.Name, 1, m.Better, 0, false)
		}
	}
	return tw.Flush()
}

// records indexes results by workload, trace flag and seed.
type records map[string]map[int]map[int64]result

func loadRecords(dir string) (records, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no results in %s", dir)
	}
	rs := records{}
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rs[r.Workload] == nil {
			rs[r.Workload] = map[int]map[int64]result{}
		}
		if rs[r.Workload][r.Trace] == nil {
			rs[r.Workload][r.Trace] = map[int64]result{}
		}
		rs[r.Workload][r.Trace][r.Seed] = r.Result
	}
	return rs, nil
}

// values returns one metric of one workload, by seed.
func (rs records) values(workload, metric string, trace int) map[int64]float64 {
	out := map[int64]float64{}
	for seed, r := range rs[workload][trace] {
		if v, ok := r.Metrics[metric]; ok {
			out[seed] = v.Value
		}
	}
	return out
}

func sortedValues(m map[int64]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	sort.Float64s(out)
	return out
}

func summary(sorted []float64) string {
	if len(sorted) == 0 {
		return "-"
	}
	q := quartiles(sorted)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q[1], q[0], q[2])
}

// improves reports whether the change's value is strictly better.
func improves(parent, change float64, better string) bool {
	if better == "higher" {
		return change > parent
	}
	return change < parent
}

// quartiles of sorted values, computed as Python's
// statistics.quantiles(values, n=4) does (the default exclusive method).
func quartiles(sorted []float64) [3]float64 {
	var q [3]float64
	n := len(sorted)
	if n == 1 {
		return [3]float64{sorted[0], sorted[0], sorted[0]}
	}
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return q
}

// verdict applies the rules of the choosing-metrics guide: "worse" when
// the change's median is worse than the parent's by more than the bound;
// "better" when the change won at least nine tenths of at least ten pairs
// and the medians differ by more than the parent's interquartile range;
// "unresolved" when either side's spread exceeds the bound, unless every
// change run beat every parent run; otherwise "unchanged". Per-layer
// metrics have no bound: they read "better" or "worse" by the pair rule.
func verdict(parent, change []float64, wins, losses, pairs int, better string, bound float64, hasBound bool) string {
	if len(parent) == 0 || len(change) == 0 {
		return "missing"
	}
	pq, cq := quartiles(parent), quartiles(change)
	pm, cm := pq[1], cq[1]
	if hasBound && pm != 0 && improves(cm, pm, better) && math.Abs(cm-pm)/math.Abs(pm) > bound {
		return "worse"
	}
	// The pair rule: nine tenths of at least ten pairs, ties counting for
	// neither side, and a median gap wider than the parent's spread.
	decisive := func(n int) bool {
		return pairs >= 10 && float64(n) >= 0.9*float64(pairs) && math.Abs(cm-pm) > pq[2]-pq[0]
	}
	switch {
	case decisive(wins) && improves(pm, cm, better):
		return "better"
	case !hasBound && decisive(losses) && improves(cm, pm, better):
		return "worse"
	case !hasBound:
		return "unchanged"
	}
	// Every change run beats every parent run when the extremes do.
	allBetter := improves(parent[0], change[len(change)-1], better)
	if better == "higher" {
		allBetter = improves(parent[len(parent)-1], change[0], better)
	}
	if math.Max(relSpread(pq), relSpread(cq)) > bound && !allBetter {
		return "unresolved"
	}
	return "unchanged"
}

// relSpread is the interquartile range as a share of the median.
func relSpread(q [3]float64) float64 {
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}

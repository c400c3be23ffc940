package main

import (
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"time"
)

// metricDef is one reported metric. BENCHMARK.json at the repository root
// lists the same names and units, with each metric's direction and bound;
// the smoke test keeps the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of the untraced run. Every workload reports
// every one, so the latency metrics time the workload's own operation:
// one document's synthesis (synth-log), one Learn call (refine), one
// document inside batch.Run (batch-logs), one scan request (serve-scan).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_mem_mb", "MB"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"examples_per_field", "count"},
}

// perLayer are the metrics of the traced run, named by module. Times and
// counts are per sample (the workload's operation) unless the name says
// otherwise; a layer a workload never enters reads 0 there.
var perLayer = []metricDef{
	{"core.cleanup_self_ms", "ms"},
	{"core.map_self_ms", "ms"},
	{"core.filter_self_ms", "ms"},
	{"core.merge_self_ms", "ms"},
	{"core.pair_self_ms", "ms"},
	{"core.union_self_ms", "ms"},
	{"core.candidates_pruned", "count"},
	{"core.prune_ratio", "ratio"},
	{"core.abstraction_refinements", "count"},
	{"engine.driver_self_ms", "ms"},
	{"engine.validate_self_ms", "ms"},
	{"engine.candidates_explored", "count"},
	{"engine.incremental_hits", "count"},
	{"engine.incremental_fallbacks", "count"},
	{"engine.run_us", "us"},
	{"textlang.ls_replays", "count"},
	{"textlang.ls_replay_self_ms", "ms"},
	{"tokens.cache_hit_ratio", "ratio"},
	{"tokens.cache_evictions", "count"},
	{"tokens.cache_mb", "MB"},
	{"go.alloc_mb_per_sample", "MB"},
	{"go.gc_cycles_per_sample", "count"},
	{"docstore.hash_us", "us"},
	{"prefilter.admit_us", "us"},
	{"parse.text_us", "us"},
	{"parse.web_us", "us"},
	{"parse.sheet_us", "us"},
	{"export.render_us", "us"},
	{"batch.overhead_us", "us"},
	{"serve.handle_p50_us", "us"},
	{"serve.stream_us", "us"},
	{"serve.compiles_per_req", "count"},
	{"serve.overloaded", "count"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.dropped_spans", "count"},
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: whether every checked output was
// right, how many operations were attempted and failed, and the metrics.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newResult attaches units to measured values; defs names every metric
// the result must carry.
func newResult(defs []metricDef, values map[string]float64, attempted, failed int64) result {
	r := result{
		Correct:   failed == 0 && attempted > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		r.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return r
}

// window is what one measured stretch of a workload produced.
type window struct {
	lat []time.Duration // latency of every completed operation
	// busy is the time spent inside the system's entry points. For the
	// sequential workloads it is the sum of lat; for batch and serve,
	// whose operations overlap, it is the wall time of the stretch.
	busy      time.Duration
	attempted int64
	failed    int64
}

// record adds one operation of a sequential workload.
func (w *window) record(lat time.Duration, ok bool) {
	w.lat = append(w.lat, lat)
	w.busy += lat
	w.attempted++
	if !ok {
		w.failed++
	}
}

func (w *window) add(o window) {
	w.lat = append(w.lat, o.lat...)
	w.busy += o.busy
	w.attempted += o.attempted
	w.failed += o.failed
}

// opsPerSecond is completed operations per second of busy time.
func (w window) opsPerSecond() float64 {
	if w.busy <= 0 {
		return 0
	}
	return float64(len(w.lat)) / w.busy.Seconds()
}

// percentiles returns the nearest-rank quantiles of the latencies.
func (w window) percentiles(qs ...float64) []time.Duration {
	sorted := append([]time.Duration(nil), w.lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	out := make([]time.Duration, len(qs))
	if len(sorted) == 0 {
		return out
	}
	for i, q := range qs {
		k := int(math.Ceil(q*float64(len(sorted)))) - 1
		if k < 0 {
			k = 0
		}
		out[i] = sorted[k]
	}
	return out
}

// timings are the timing metrics of a measured run, in ms and 1/s.
type timings struct {
	p50, p90, opsPerSecond float64
}

// minGroup is the fewest operations a group of stretches holds, so that
// its p90 has at least ten samples beyond it.
const minGroup = 100

// stretchTimings merges consecutive stretches into groups of at least
// minGroup operations and returns, for each timing, the median of the
// groups' values. Interference from outside the process that lasts a few
// seconds then moves the groups it falls in, not the medians. A workload
// of few, long operations (synth-log) gets fewer, larger groups, and one
// group when a run has fewer than 2*minGroup operations.
func stretchTimings(ws []window) timings {
	var groups []window
	var cur window
	for _, w := range ws {
		cur.add(w)
		if len(cur.lat) >= minGroup {
			groups = append(groups, cur)
			cur = window{}
		}
	}
	switch {
	case len(groups) == 0:
		groups = append(groups, cur)
	case len(cur.lat) > 0:
		groups[len(groups)-1].add(cur)
	}
	var p50, p90, ops []float64
	for _, g := range groups {
		p := g.percentiles(0.5, 0.9)
		p50 = append(p50, ms(p[0]))
		p90 = append(p90, ms(p[1]))
		ops = append(ops, g.opsPerSecond())
	}
	return timings{p50: median(p50), p90: median(p90), opsPerSecond: median(ops)}
}

// scaled converts t, measured on a host that runs the reference work scale
// times as fast as refRate, to the reference host.
func (t timings) scaled(scale float64) timings {
	return timings{p50: t.p50 * scale, p90: t.p90 * scale, opsPerSecond: t.opsPerSecond / scale}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0 (a layer the workload never entered).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// memoryPeak samples, until stopped, the memory the Go runtime holds: all
// it has mapped less what it has released to the OS, the program's
// resident memory but for the executable itself. Sampling spans only the
// measured run, so set-up, which a user pays once, does not set the peak,
// and a peak taken over many GC cycles varies less than one taken over
// the few of a set-up.
type memoryPeak struct {
	stop, done chan struct{}
	peak       uint64
}

func watchMemory() *memoryPeak {
	p := &memoryPeak{stop: make(chan struct{}), done: make(chan struct{})}
	samples := []rtmetrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			rtmetrics.Read(samples)
			p.peak = max(p.peak, samples[0].Value.Uint64()-samples[1].Value.Uint64())
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// mb stops the sampling and returns the peak in MiB.
func (p *memoryPeak) mb() float64 {
	close(p.stop)
	<-p.done
	return float64(p.peak) / (1 << 20)
}

// allocDelta sums the Go runtime's allocation and GC cycles over the
// untraced stretches of a traced run, for the go.* metrics.
type allocDelta struct {
	bytes, cycles uint64
	at            runtime.MemStats
}

func (a *allocDelta) start() { runtime.ReadMemStats(&a.at) }

func (a *allocDelta) stop() {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	a.bytes += now.TotalAlloc - a.at.TotalAlloc
	a.cycles += uint64(now.NumGC - a.at.NumGC)
}

// metrics writes allocation and GC cycles per sample into m.
func (a *allocDelta) metrics(m map[string]float64, samples int) {
	m["go.alloc_mb_per_sample"] = ratio(float64(a.bytes)/(1<<20), float64(samples))
	m["go.gc_cycles_per_sample"] = ratio(float64(a.cycles), float64(samples))
}

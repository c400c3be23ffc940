// Package metrics provides the lightweight engine telemetry of the
// synthesis stack: named counters and latency histograms behind a minimal
// Sink interface, with a concurrency-safe stdlib-only Registry
// implementation. The engine records candidates explored, evaluation-cache
// hits and misses, learner fan-out, and per-phase latency; flashbench
// -metrics-json and Session.Stats surface the snapshots.
package metrics

import (
	"context"
	"encoding/json"
	"math"
	"sort"
	"sync"
)

// Canonical metric names recorded by the synthesis stack. Keeping them in
// one place makes the schema greppable and stable for consumers of
// -metrics-json (see EXPERIMENTS.md).
//
// Naming scheme: every name is snake_case with a subsystem prefix joined
// by underscores, so each is a valid Prometheus metric name as-is — the
// /metrics exposition endpoint renders them without mangling. (Before the
// observability layer landed, names mixed a dot-delimited style, e.g.
// "synth.candidates_explored" and "batch.docs_processed"; consumers of
// -metrics-json written against those names must switch to the underscore
// forms below. The constant identifiers did not change.)
const (
	// CandidatesExplored counts candidate programs generated and examined
	// by the learners and the validation loop of one synthesis call.
	CandidatesExplored = "synth_candidates_explored"
	// CacheHits / CacheMisses count document evaluation cache probes.
	CacheHits   = "cache_hits"
	CacheMisses = "cache_misses"
	// LearnerFanout counts learners dispatched by Union combinators.
	LearnerFanout = "core_learner_fanout"
	// LearnCalls counts synthesis driver invocations.
	LearnCalls = "synth_learn_calls"
	// PartialResults counts synthesis calls that exhausted their budget.
	PartialResults = "synth_partial_results"
	// PhaseLearn / PhaseValidate are the per-phase latency histograms of
	// the Algorithm 2 driver: DSL learning vs. execute-and-check candidate
	// validation. Values are seconds.
	PhaseLearn    = "synth_phase_learn_seconds"
	PhaseValidate = "synth_phase_validate_seconds"
	// IncrementalHits counts interactive Learn calls that kept the field's
	// current program, re-checked against the extended example spec,
	// instead of a cold re-synthesis.
	IncrementalHits = "synth_incremental_hits"
	// IncrementalFallbacks counts interactive Learn calls that had a
	// reusable current program but fell back to a cold re-synthesis (budget
	// exhausted or capped, stale committed highlighting, an example split
	// the program's ancestor cannot explain, or a program that no longer
	// passes).
	IncrementalFallbacks = "synth_incremental_fallbacks"

	// BatchDocs counts documents processed by the batch runtime (result
	// and error records alike).
	BatchDocs = "batch_docs_processed"
	// BatchErrors counts batch documents that yielded an error record.
	BatchErrors = "batch_errors"
	// BatchDocSeconds is the per-document end-to-end run latency histogram
	// of the batch runtime (open + extract + render). Values are seconds.
	BatchDocSeconds = "batch_doc_run_seconds"
	// BatchRetries counts retried document-read attempts in the batch
	// worker pool (attempts beyond each document's first read).
	BatchRetries = "batch_retries"
	// BatchPrefilterSkipped counts documents the static admission test
	// rejected — runs short-circuited to the precomputed empty result
	// without building a document or evaluation cache.
	BatchPrefilterSkipped = "batch_prefilter_skipped"
	// BatchDedupHits counts documents whose content digest matched an
	// already-extracted blob in this run, replayed from the in-run store.
	BatchDedupHits = "batch_dedup_hits"
	// BatchResumeHits counts documents replayed from a persisted resume
	// manifest instead of re-extracted.
	BatchResumeHits = "batch_resume_hits"
	// BatchShardDropped counts documents outside this process's hash-range
	// shard, dropped without a record.
	BatchShardDropped = "batch_shard_dropped"

	// ServeRequests counts protocol frames handled by the extraction
	// server (every op, ok and error responses alike).
	ServeRequests = "serve_requests"
	// ServeErrors counts requests answered with an error frame.
	ServeErrors = "serve_errors"
	// ServeOverloaded counts requests rejected by the in-flight
	// backpressure limit (a subset of ServeErrors).
	ServeOverloaded = "serve_overloaded"
	// ServeReloads counts successful program-registry reloads (the reload
	// op and SIGHUP alike).
	ServeReloads = "serve_reloads"
	// ServeFrameSeconds is the end-to-end request latency histogram of the
	// extraction server (decode through response write). Values are seconds.
	ServeFrameSeconds = "serve_frame_seconds"
	// ServeExplainRequests counts explain ops (a subset of ServeRequests):
	// scans run with execution capture that return provenance frames.
	ServeExplainRequests = "serve_explain_requests"
	// ServeExplainErrors counts explain ops answered with an error frame
	// (a subset of ServeErrors).
	ServeExplainErrors = "serve_explain_errors"
)

// Sink is the minimal recording interface the synthesis stack writes to.
// Implementations must be safe for concurrent use.
type Sink interface {
	// Count adds delta to the named counter.
	Count(name string, delta int64)
	// Observe records one sample of the named histogram.
	Observe(name string, v float64)
}

// nopSink discards every record.
type nopSink struct{}

func (nopSink) Count(string, int64)     {}
func (nopSink) Observe(string, float64) {}

// Nop is a Sink that records nothing. It is the default when no registry
// is installed, so recording call sites never need nil checks.
var Nop Sink = nopSink{}

// Registry is the stdlib Sink implementation: a named set of counters and
// histograms that can be snapshotted as JSON.
type Registry struct {
	mu    sync.Mutex
	count map[string]int64
	hist  map[string]*histogram
}

// NewRegistry creates an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{count: map[string]int64{}, hist: map[string]*histogram{}}
}

// Count implements Sink.
func (r *Registry) Count(name string, delta int64) {
	r.mu.Lock()
	r.count[name] += delta
	r.mu.Unlock()
}

// Observe implements Sink.
func (r *Registry) Observe(name string, v float64) {
	r.mu.Lock()
	h := r.hist[name]
	if h == nil {
		h = &histogram{min: math.Inf(1), max: math.Inf(-1)}
		r.hist[name] = h
	}
	h.observe(v)
	r.mu.Unlock()
}

// Counter returns the current value of a counter (0 when never recorded).
func (r *Registry) Counter(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count[name]
}

// histogram is a streaming summary: count, sum, min, max, and a small set
// of powers-of-two latency buckets (upper bounds in seconds).
type histogram struct {
	count    int64
	sum      float64
	min, max float64
	buckets  [len(bucketBounds) + 1]int64
}

// bucketBounds are the histogram's upper bounds in seconds, spanning the
// latencies synthesis phases exhibit (0.1ms .. ~26s); the final implicit
// bucket is +Inf.
var bucketBounds = [...]float64{
	0.0001, 0.0004, 0.0016, 0.0064, 0.0256, 0.1024, 0.4096, 1.6384, 6.5536, 26.2144,
}

func (h *histogram) observe(v float64) {
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	i := sort.SearchFloat64s(bucketBounds[:], v)
	h.buckets[i]++
}

// BucketCount is one histogram bucket of a snapshot: the bucket's upper
// bound rendered as a string ("+Inf" for the final bucket) and the number
// of samples that fell in it (non-cumulative).
type BucketCount struct {
	Le    string `json:"le"`
	Count int64  `json:"count"`
}

// HistogramStats is the exported summary of one histogram.
type HistogramStats struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	// P50/P90/P99 are quantile estimates, linearly interpolated within the
	// bucket that contains the quantile and clamped to [Min, Max]. They are
	// estimates with bucket-width resolution, not exact order statistics.
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	// Buckets lists every bucket in ascending bound order with "+Inf"
	// last — a stable order regardless of which buckets received samples,
	// so JSON output and the Prometheus renderer are deterministic.
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of a registry, JSON-marshalable.
type Snapshot struct {
	Counters   map[string]int64          `json:"counters"`
	Histograms map[string]HistogramStats `json:"histograms"`
}

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.count)),
		Histograms: make(map[string]HistogramStats, len(r.hist)),
	}
	for k, v := range r.count {
		s.Counters[k] = v
	}
	for k, h := range r.hist {
		hs := HistogramStats{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
		if h.count > 0 {
			hs.Mean = h.sum / float64(h.count)
		} else {
			hs.Min, hs.Max = 0, 0
		}
		hs.Buckets = make([]BucketCount, 0, len(h.buckets))
		for i, n := range h.buckets {
			le := "+Inf"
			if i < len(bucketBounds) {
				le = formatBound(bucketBounds[i])
			}
			hs.Buckets = append(hs.Buckets, BucketCount{Le: le, Count: n})
		}
		hs.P50 = h.quantile(0.50)
		hs.P90 = h.quantile(0.90)
		hs.P99 = h.quantile(0.99)
		s.Histograms[k] = hs
	}
	return s
}

// quantile estimates the q-th quantile (0 < q < 1) from the bucket counts
// by linear interpolation within the containing bucket, clamped to the
// observed [min, max]. Zero is returned for an empty histogram.
func (h *histogram) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := q * float64(h.count)
	var cum int64
	for i, n := range h.buckets {
		cum += n
		if float64(cum) < rank || n == 0 {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = bucketBounds[i-1]
		}
		hi := h.max
		if i < len(bucketBounds) && bucketBounds[i] < hi {
			hi = bucketBounds[i]
		}
		if hi < lo {
			hi = lo
		}
		// Position of the rank within this bucket's count.
		frac := (rank - float64(cum-n)) / float64(n)
		v := lo + frac*(hi-lo)
		if v < h.min {
			v = h.min
		}
		if v > h.max {
			v = h.max
		}
		return v
	}
	return h.max
}

func formatBound(b float64) string {
	out, _ := json.Marshal(b)
	return string(out)
}

// MarshalJSON renders the snapshot of the registry.
func (r *Registry) MarshalJSON() ([]byte, error) { return json.Marshal(r.Snapshot()) }

// sinkKey keys the Sink installed in a context.
type sinkKey struct{}

// Into returns a context carrying the sink; the synthesis stack records
// into it for the duration of calls made with the context.
func Into(ctx context.Context, s Sink) context.Context {
	return context.WithValue(ctx, sinkKey{}, s)
}

// From returns the sink carried by the context, or Nop when none is
// installed. The result is never nil.
func From(ctx context.Context) Sink {
	if ctx == nil {
		return Nop
	}
	if s, ok := ctx.Value(sinkKey{}).(Sink); ok && s != nil {
		return s
	}
	return Nop
}

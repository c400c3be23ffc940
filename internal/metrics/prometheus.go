package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// helpText carries the one-line # HELP description of each canonical
// metric name. Names outside this map (external sinks) fall back to a
// generic line so the exposition always pairs HELP with TYPE.
var helpText = map[string]string{
	CandidatesExplored:    "Candidate programs generated and examined per synthesis call.",
	CacheHits:             "Document evaluation cache probes that hit.",
	CacheMisses:           "Document evaluation cache probes that missed.",
	LearnerFanout:         "Learners dispatched by Union combinators.",
	LearnCalls:            "Synthesis driver invocations.",
	PartialResults:        "Synthesis calls that exhausted their budget.",
	PhaseLearn:            "DSL learning phase latency in seconds.",
	PhaseValidate:         "Candidate validation phase latency in seconds.",
	IncrementalHits:       "Interactive Learn calls that kept the current program.",
	IncrementalFallbacks:  "Interactive Learn calls that fell back to cold re-synthesis.",
	BatchDocs:             "Documents processed by the batch runtime.",
	BatchErrors:           "Batch documents that yielded an error record.",
	BatchDocSeconds:       "Per-document end-to-end batch run latency in seconds.",
	BatchRetries:          "Retried document-read attempts in the batch worker pool.",
	BatchPrefilterSkipped: "Documents rejected by the static admission prefilter.",
	BatchDedupHits:        "Documents replayed from the in-run content-digest store.",
	BatchResumeHits:       "Documents replayed from a persisted resume manifest.",
	BatchShardDropped:     "Documents outside this process's hash-range shard.",
	ServeRequests:         "Protocol frames handled by the extraction server.",
	ServeErrors:           "Requests answered with an error frame.",
	ServeOverloaded:       "Requests rejected by the in-flight backpressure limit.",
	ServeReloads:          "Successful program-registry reloads.",
	ServeFrameSeconds:     "End-to-end request latency of the extraction server in seconds.",
	ServeExplainRequests:  "Explain ops: scans run with execution capture.",
	ServeExplainErrors:    "Explain ops answered with an error frame.",
}

// helpFor returns the HELP description for a metric name, falling back to
// a generic line for names outside the canonical set.
func helpFor(name, kind string) string {
	if h, ok := helpText[name]; ok {
		return h
	}
	return "flashextract " + kind + " metric."
}

// WritePrometheus renders a snapshot in the Prometheus text exposition
// format (version 0.0.4): counters as counter metrics, histograms as
// histogram metrics with cumulative _bucket series, _sum, and _count.
// Every metric is preceded by its # HELP and # TYPE lines (HELP first, as
// the format requires). Metric names are emitted in sorted order and every
// histogram lists its buckets in ascending bound order with le="+Inf"
// last, so the output is byte-deterministic for a given snapshot. Names
// already follow the snake_case scheme of this package; sanitizeName is a
// safety net for sinks fed by external callers.
func WritePrometheus(w io.Writer, s Snapshot) error {
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		n := sanitizeName(name)
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
			n, helpFor(name, "counter"), n, n, s.Counters[name]); err != nil {
			return err
		}
	}

	hnames := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		hnames = append(hnames, name)
	}
	sort.Strings(hnames)
	for _, name := range hnames {
		h := s.Histograms[name]
		n := sanitizeName(name)
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n",
			n, helpFor(name, "histogram"), n); err != nil {
			return err
		}
		var cum int64
		for _, b := range h.Buckets {
			cum += b.Count
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", n, b.Le, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", n, formatFloat(h.Sum), n, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// sanitizeName maps an arbitrary metric name onto the Prometheus name
// grammar [a-zA-Z_:][a-zA-Z0-9_:]*, replacing every invalid rune with '_'.
func sanitizeName(name string) string {
	if name == "" {
		return "_"
	}
	var b strings.Builder
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// formatFloat renders a float the way Prometheus expects (shortest
// round-trippable decimal form).
func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

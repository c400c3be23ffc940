package bench_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"flashextract/internal/bench"
	"flashextract/internal/bench/corpus"
	"flashextract/internal/trace"
)

// traceHadoopXLSerial synthesizes hadoop-xl under the tracer at
// GOMAXPROCS(1), which serializes every union fan-out — the configuration
// in which the span tree's structure is fully deterministic.
func traceHadoopXLSerial(t *testing.T) *trace.Span {
	t.Helper()
	oldProcs := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(oldProcs) })
	task := corpus.ByName("hadoop-xl")
	if task == nil {
		t.Fatal("hadoop-xl not in corpus")
	}
	root, err := bench.TraceTask(context.Background(), task)
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestTraceHadoopXLSpans asserts the acceptance-level span taxonomy: the
// hadoop-xl synthesis trace contains field-level, learner-level (Map,
// Filter, Merge, Pair), and cache spans, and its Chrome export is valid
// Perfetto-loadable trace-event JSON.
func TestTraceHadoopXLSpans(t *testing.T) {
	if testing.Short() {
		t.Skip("hadoop-xl synthesis is seconds-long; skipped in -short")
	}
	root := traceHadoopXLSerial(t)

	names := trace.SpanNames(root)
	counts := map[string]int{}
	for _, n := range names {
		counts[n]++
	}
	has := func(name string) bool {
		for _, n := range names {
			if n == name || len(n) > len(name) && n[:len(name)+1] == name+":" {
				return true
			}
		}
		return false
	}
	for _, want := range []string{
		"task", "field", "ancestor", "learn", "validate", // driver levels
		"map", "filter_bool", "filter_int", "merge", "pair", // Fig. 6 learners
		"union", "cleanup", // framework combinators
		"cache", // cache hit/miss delta span
	} {
		if !has(want) {
			t.Errorf("trace missing %q span; have %v", want, counts)
		}
	}

	// Two seq fields → two field spans, each with exactly one cache child.
	fields := 0
	for _, n := range names {
		if len(n) > 6 && n[:6] == "field:" {
			fields++
		}
	}
	if fields != 2 {
		t.Errorf("field spans = %d, want 2", fields)
	}

	// Perfetto validity: the export is one JSON object whose traceEvents
	// are complete ("X") events with the required keys and sane values.
	out, err := trace.ChromeTrace(root)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(out) {
		t.Fatal("Chrome trace is not valid JSON")
	}
	var file struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Cat  string   `json:"cat"`
			Ph   string   `json:"ph"`
			Ts   *float64 `json:"ts"`
			Dur  *float64 `json:"dur"`
			Pid  *int     `json:"pid"`
			Tid  *int     `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(out, &file); err != nil {
		t.Fatal(err)
	}
	var countSpans func(s *trace.Span) int
	countSpans = func(s *trace.Span) int {
		n := 1
		for _, c := range s.Children() {
			n += countSpans(c)
		}
		return n
	}
	if total := countSpans(root); len(file.TraceEvents) != total {
		t.Fatalf("events = %d, spans = %d", len(file.TraceEvents), total)
	}
	for i, ev := range file.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event %d: ph = %q, want X", i, ev.Ph)
		}
		if ev.Name == "" || ev.Ts == nil || ev.Dur == nil || ev.Pid == nil || ev.Tid == nil {
			t.Fatalf("event %d (%q) missing required keys", i, ev.Name)
		}
		if *ev.Ts < 0 || *ev.Dur < 0 {
			t.Fatalf("event %d (%q): negative ts/dur", i, ev.Name)
		}
	}
}

// TestTraceHadoopXLGoldenStructure pins the exact serial span-tree shape
// (names and nesting only — durations and attrs carry no structure) against
// testdata/hadoop_xl_trace.golden. Regenerate with:
//
//	go test ./internal/bench/ -run GoldenStructure -update
func TestTraceHadoopXLGoldenStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("hadoop-xl synthesis is seconds-long; skipped in -short")
	}
	root := traceHadoopXLSerial(t)
	var buf bytes.Buffer
	if err := trace.WriteStructure(&buf, root); err != nil {
		t.Fatal(err)
	}
	goldenPath := filepath.Join("testdata", "hadoop_xl_trace.golden")
	if *update {
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace structure drifted from golden:\ngot:\n%s\nwant:\n%s", buf.String(), want)
	}
}

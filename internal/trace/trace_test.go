package trace

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestNilSafety(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := Start(ctx, "orphan")
	if sp != nil {
		t.Fatalf("Start without tracer returned non-nil span")
	}
	if ctx2 != ctx {
		t.Fatalf("Start without tracer changed the context")
	}
	// Every nil-span method must be a no-op, not a panic.
	sp.End()
	sp.SetString("k", "v")
	sp.SetInt("n", 1)
	sp.SetFloat("f", 1.5)
	sp.SetBool("b", true)
	if sp.ID() != 0 || sp.Name() != "" || sp.Duration() != 0 {
		t.Fatalf("nil span accessors returned non-zero values")
	}
	if sp.Children() != nil || sp.Attrs() != nil {
		t.Fatalf("nil span lists non-nil")
	}
	var nilTracer *Tracer
	if _, sp := nilTracer.StartRoot(ctx, "r"); sp != nil {
		t.Fatalf("nil tracer StartRoot returned a span")
	}
}

func TestNesting(t *testing.T) {
	tr := NewTracer()
	ctx, root := tr.StartRoot(context.Background(), "root")
	ctx1, a := Start(ctx, "a")
	_, aa := Start(ctx1, "a.a")
	aa.End()
	a.End()
	_, b := Start(ctx, "b")
	b.SetInt("n", 7)
	b.End()
	root.End()

	if got := len(tr.Roots()); got != 1 {
		t.Fatalf("roots = %d, want 1", got)
	}
	kids := root.Children()
	if len(kids) != 2 || kids[0].Name() != "a" || kids[1].Name() != "b" {
		t.Fatalf("root children = %v", names(kids))
	}
	if kids[0].ParentID() != root.ID() {
		t.Fatalf("child parent ID = %d, want %d", kids[0].ParentID(), root.ID())
	}
	g := kids[0].Children()
	if len(g) != 1 || g[0].Name() != "a.a" {
		t.Fatalf("grandchildren = %v", names(g))
	}
	attrs := kids[1].Attrs()
	if len(attrs) != 1 || attrs[0].Key != "n" || attrs[0].Value != int64(7) {
		t.Fatalf("attrs = %v", attrs)
	}
	if root.Duration() <= 0 {
		t.Fatalf("ended root has zero duration")
	}
}

// TestConcurrentChildren exercises concurrent span creation and attribute
// writes under one parent — the shape the learner goroutines of
// core.UnionLearners produce under a union span — and is expected to run
// under -race in CI.
func TestConcurrentChildren(t *testing.T) {
	tr := NewTracer()
	ctx, root := tr.StartRoot(context.Background(), "root")
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				cctx, sp := Start(ctx, "child")
				sp.SetInt("worker", int64(w))
				_, in := Start(cctx, "inner")
				in.End()
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	root.End()
	kids := root.Children()
	if len(kids) != workers*perWorker {
		t.Fatalf("children = %d, want %d", len(kids), workers*perWorker)
	}
	for _, c := range kids {
		if c.ParentID() != root.ID() {
			t.Fatalf("child %d has parent %d, want %d", c.ID(), c.ParentID(), root.ID())
		}
		if len(c.Children()) != 1 {
			t.Fatalf("child missing inner span")
		}
	}
	if tr.SpanCount() != int64(1+2*workers*perWorker) {
		t.Fatalf("span count = %d", tr.SpanCount())
	}
}

func TestSpanCap(t *testing.T) {
	tr := NewTracer()
	tr.SetMaxSpans(3)
	ctx, root := tr.StartRoot(context.Background(), "root")
	_, a := Start(ctx, "a")
	_, b := Start(ctx, "b")
	_, c := Start(ctx, "c") // over the cap
	if a == nil || b == nil {
		t.Fatalf("spans under the cap were dropped")
	}
	if c != nil {
		t.Fatalf("span over the cap was allocated")
	}
	if tr.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", tr.Dropped())
	}
	root.End()
}

// TestChromeRoundTrip asserts the Chrome export parses as JSON and
// re-marshals to the identical byte sequence, so downstream tooling can
// round-trip traces losslessly.
func TestChromeRoundTrip(t *testing.T) {
	tr := NewTracer()
	ctx, root := tr.StartRoot(context.Background(), "root")
	ctx1, a := Start(ctx, "a")
	a.SetString("field", "ts")
	a.SetInt("candidates", 12)
	a.SetFloat("seconds", 0.25)
	a.SetBool("hit", true)
	_, inner := Start(ctx1, "inner")
	inner.End()
	a.End()
	root.End()

	out, err := ChromeTrace(root)
	if err != nil {
		t.Fatalf("ChromeTrace: %v", err)
	}
	if !json.Valid(out) {
		t.Fatalf("export is not valid JSON")
	}
	var file chromeFile
	if err := json.Unmarshal(out, &file); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(file.TraceEvents) != 3 {
		t.Fatalf("events = %d, want 3", len(file.TraceEvents))
	}
	for _, ev := range file.TraceEvents {
		if ev.Ph != "X" || ev.Pid != 1 || ev.Tid < 1 || ev.Ts < 0 || ev.Dur < 0 || ev.Name == "" {
			t.Fatalf("malformed event: %+v", ev)
		}
	}
	again, err := json.Marshal(file)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if string(again) != string(out) {
		t.Fatalf("round trip not stable:\n%s\nvs\n%s", out, again)
	}
}

// TestChromeLanes asserts that overlapping sibling spans land on distinct
// lanes so Perfetto's nesting invariant (complete events on one tid nest
// by time) holds.
func TestChromeLanes(t *testing.T) {
	tr := NewTracer()
	ctx, root := tr.StartRoot(context.Background(), "root")
	// Two children created back-to-back and ended after both started: they
	// overlap in time, so they must not share a lane while both are open.
	_, a := Start(ctx, "a")
	_, b := Start(ctx, "b")
	a.End()
	b.End()
	root.End()
	out, err := ChromeTrace(root)
	if err != nil {
		t.Fatalf("ChromeTrace: %v", err)
	}
	var file chromeFile
	if err := json.Unmarshal(out, &file); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	byName := map[string]chromeEvent{}
	for _, ev := range file.TraceEvents {
		byName[ev.Name] = ev
	}
	ea, eb := byName["a"], byName["b"]
	overlaps := ea.Ts < eb.Ts+eb.Dur && eb.Ts < ea.Ts+ea.Dur
	if overlaps && ea.Tid == eb.Tid {
		t.Fatalf("overlapping siblings share lane %d", ea.Tid)
	}
}

func TestTreeExports(t *testing.T) {
	tr := NewTracer()
	ctx, root := tr.StartRoot(context.Background(), "root")
	ctx1, a := Start(ctx, "a")
	a.SetInt("n", 1)
	a.SetInt("n", 2) // repeated key: last value wins in the rendering
	_, in := Start(ctx1, "inner")
	in.End()
	a.End()
	root.End()

	var tree strings.Builder
	if err := WriteTree(&tree, root); err != nil {
		t.Fatalf("WriteTree: %v", err)
	}
	if !strings.Contains(tree.String(), "a ") || !strings.Contains(tree.String(), "n=2") {
		t.Fatalf("tree rendering missing span or attr:\n%s", tree.String())
	}
	if strings.Contains(tree.String(), "n=1") {
		t.Fatalf("tree rendering kept stale attr value:\n%s", tree.String())
	}

	var structure strings.Builder
	if err := WriteStructure(&structure, root); err != nil {
		t.Fatalf("WriteStructure: %v", err)
	}
	want := "root\n  a\n    inner\n"
	if structure.String() != want {
		t.Fatalf("structure = %q, want %q", structure.String(), want)
	}

	n := ToNode(root)
	if n == nil || n.Name != "root" || len(n.Children) != 1 || n.Children[0].Children[0].Name != "inner" {
		t.Fatalf("ToNode shape wrong: %+v", n)
	}
	if ToNode(nil) != nil {
		t.Fatalf("ToNode(nil) != nil")
	}
	got := SpanNames(root)
	if want := []string{"a", "inner", "root"}; len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("SpanNames = %v", got)
	}
}

func names(spans []*Span) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Name()
	}
	return out
}

// BenchmarkStartDisabled measures the no-op fast path: Start on a context
// with no tracer installed. This is the per-call-site cost the synthesis
// stack pays when tracing is off — a context lookup and a nil check.
func BenchmarkStartDisabled(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := Start(ctx, "noop")
		sp.SetInt("n", int64(i))
		sp.End()
	}
}

// BenchmarkStartEnabled measures the enabled path for comparison.
func BenchmarkStartEnabled(b *testing.B) {
	tr := NewTracer()
	tr.SetMaxSpans(1 << 30)
	ctx, root := tr.StartRoot(context.Background(), "root")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, sp := Start(ctx, "span")
		sp.SetInt("n", int64(i))
		sp.End()
	}
	b.StopTimer()
	root.End()
}

package batch_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"flashextract/internal/batch"
	"flashextract/internal/trace"
)

// TestMonitorTracksRun runs a real batch with a Monitor attached and
// asserts the health snapshot converges to the run's summary and every
// document's span tree lands in the ring, newest first.
func TestMonitorTracksRun(t *testing.T) {
	prog := learnTextProgram(t)
	sources := []batch.Source{
		batch.StringSource("a.txt", chairDoc("Bistro", "75.40")),
		batch.StringSource("b.txt", chairDoc("Windsor", "185.00")),
		batch.StringSource("c.txt", "not a chair document at all"),
	}
	mon := &batch.Monitor{}
	var out bytes.Buffer
	sum, err := batch.Run(context.Background(), batch.Options{
		Program: prog, DocType: "text", Workers: 2, Ordered: true,
		Monitor: mon, Trace: true,
	}, sources, &out)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Docs != 3 {
		t.Fatalf("summary = %+v", sum)
	}

	h := mon.Health()
	if h.Status != "done" {
		t.Fatalf("status = %q, want done", h.Status)
	}
	if h.WorkersAlive != 0 || h.InFlight != 0 {
		t.Fatalf("post-run liveness = %+v, want zeros", h)
	}
	if h.Processed != int64(sum.Docs) || h.Failed != int64(sum.Errors) {
		t.Fatalf("monitor %+v disagrees with summary %+v", h, sum)
	}

	roots := mon.RecentTraces(0)
	if len(roots) != 3 {
		t.Fatalf("retained traces = %d, want 3", len(roots))
	}
	seen := map[string]bool{}
	for _, root := range roots {
		if !strings.HasPrefix(root.Name(), "doc:") {
			t.Fatalf("root span %q lacks doc: prefix", root.Name())
		}
		seen[root.Name()] = true
		if root.Duration() <= 0 {
			t.Fatalf("root span %q not ended", root.Name())
		}
		// Every traced document synthesis runs under the doc root; the
		// extraction executes a learned program (no synthesis), so the
		// tree may be shallow, but the ok attr must be present.
		var hasOK bool
		for _, a := range root.Attrs() {
			if a.Key == "ok" {
				hasOK = true
			}
		}
		if !hasOK {
			t.Fatalf("root span %q missing ok attr", root.Name())
		}
	}
	for _, name := range []string{"doc:a.txt", "doc:b.txt", "doc:c.txt"} {
		if !seen[name] {
			t.Fatalf("missing trace for %s (have %v)", name, seen)
		}
	}
}

// TestMonitorRingBound asserts the trace ring drops oldest-first at its
// bound, and that the bound is the monitor's: a second run sharing the
// monitor, as every request of a server does, keeps it.
func TestMonitorRingBound(t *testing.T) {
	mon := &batch.Monitor{TraceRing: 2}
	prog := learnTextProgram(t)
	for _, names := range [][]string{{"1", "2", "3", "4", "5"}, {"6", "7", "8", "9", "10"}} {
		var sources []batch.Source
		for _, n := range names {
			sources = append(sources, batch.StringSource(n, chairDoc("Tulip", "99.99")))
		}
		var out bytes.Buffer
		_, err := batch.Run(context.Background(), batch.Options{
			Program: prog, DocType: "text", Workers: 1, Ordered: true,
			Monitor: mon, Trace: true,
		}, sources, &out)
		if err != nil {
			t.Fatal(err)
		}
		roots := mon.RecentTraces(0)
		if len(roots) != 2 {
			t.Fatalf("ring size = %d after %v, want 2", len(roots), names)
		}
		if want := []string{"doc:" + names[4], "doc:" + names[3]}; roots[0].Name() != want[0] || roots[1].Name() != want[1] {
			t.Fatalf("ring = %q, %q, want %q newest first", roots[0].Name(), roots[1].Name(), want)
		}
	}
}

// TestMonitorNilIsNoOp asserts every Monitor method is nil-safe, matching
// the nil-receiver contract relied on by the batch hot path.
func TestMonitorNilIsNoOp(t *testing.T) {
	var mon *batch.Monitor
	if h := mon.Health(); h.Status != "idle" {
		t.Fatalf("nil monitor health = %+v", h)
	}
	if tr := mon.RecentTraces(5); tr != nil {
		t.Fatalf("nil monitor traces = %v", tr)
	}
	mon.RecordTrace(&trace.Span{})
}

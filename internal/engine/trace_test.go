package engine

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"

	"flashextract/internal/trace"
)

// TestFirstPassingWorkerSpans asserts that the validation scan's worker
// goroutines create child spans that nest under the span carried by the
// caller's context — the cross-goroutine parent/child guarantee of the
// tracer — and that the scan's answer is unaffected by tracing.
func TestFirstPassingWorkerSpans(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	tr := trace.NewTracer()
	ctx, root := tr.StartRoot(context.Background(), "validate")
	var tries atomic.Int64
	idx, complete := firstPassing(ctx, 64, func(i int) bool {
		tries.Add(1)
		return i == 40
	})
	root.End()
	if idx != 40 || !complete {
		t.Fatalf("firstPassing = (%d, %v), want (40, true)", idx, complete)
	}
	workers := root.Children()
	if len(workers) != 4 {
		t.Fatalf("worker spans = %d, want 4", len(workers))
	}
	var spanTried int64
	for _, w := range workers {
		if w.Name() != "validate_worker" {
			t.Fatalf("unexpected span %q under validate", w.Name())
		}
		if w.ParentID() != root.ID() {
			t.Fatalf("worker span parent = %d, want %d", w.ParentID(), root.ID())
		}
		if w.Duration() <= 0 {
			t.Fatalf("worker span not ended")
		}
		for _, a := range w.Attrs() {
			if a.Key == "tried" {
				spanTried += a.Value.(int64)
			}
		}
	}
	// Workers may claim an index and abandon it after a lower passing index
	// is published, so the spans' tried counts can exceed the passing
	// index but never the total claim count.
	if spanTried < 1 || spanTried > tries.Load() {
		t.Fatalf("span tried total = %d, callback tries = %d", spanTried, tries.Load())
	}
}

// TestFirstPassingNoTracer asserts the serial and parallel paths work
// unchanged with no tracer on the context (the production default).
func TestFirstPassingNoTracer(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, workers := range []int{1, 4} {
		runtime.GOMAXPROCS(workers)
		idx, complete := firstPassing(context.Background(), 10, func(i int) bool { return i >= 7 })
		if idx != 7 || !complete {
			t.Fatalf("workers=%d: firstPassing = (%d, %v), want (7, true)", workers, idx, complete)
		}
	}
}

package engine

import (
	"context"
	"runtime"
	"testing"
	"time"

	"flashextract/internal/core"
	"flashextract/internal/region"
	"flashextract/internal/schema"
	"flashextract/internal/trace"
)

// TestFirstPassingStopsOnCancelAndBudget checks that the validation scan
// checks its context and budget before every candidate: a cancelled
// context or an expired deadline stops it before the first try, and a
// budget tripped inside try(k) stops it right after that call. A cut scan
// reports (-1, false) even when a later candidate would have passed.
func TestFirstPassingStopsOnCancelAndBudget(t *testing.T) {
	const n = 10
	check := func(name string, ctx context.Context, trip func(int), wantCalls int) {
		t.Helper()
		calls := 0
		idx, complete := firstPassing(ctx, n, func(i int) bool {
			calls++
			if trip != nil {
				trip(i)
			}
			return i == n-1
		})
		if idx != -1 || complete {
			t.Fatalf("%s: firstPassing = (%d, %v), want (-1, false)", name, idx, complete)
		}
		if calls != wantCalls {
			t.Fatalf("%s: try called %d times, want %d", name, calls, wantCalls)
		}
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	check("cancelled", cancelled, nil, 0)

	expired, _ := core.WithBudget(context.Background(),
		core.SynthBudget{Deadline: time.Now().Add(-time.Second)})
	check("expired deadline", expired, nil, 0)

	const k = 3
	ctx, bud := core.WithBudget(context.Background(), core.SynthBudget{})
	check("tripped in try", ctx, func(i int) {
		if i == k {
			bud.Trip(core.ReasonInjected)
		}
	}, k+1)
}

// TestFirstPassingEdgeCases covers an empty scan, a scan in which no
// candidate passes, and a one-candidate scan.
func TestFirstPassingEdgeCases(t *testing.T) {
	ctx := context.Background()
	if got, _ := firstPassing(ctx, 0, func(int) bool { return true }); got != -1 {
		t.Fatalf("n=0: got %d", got)
	}
	if got, _ := firstPassing(ctx, 5, func(int) bool { return false }); got != -1 {
		t.Fatalf("all-fail: got %d", got)
	}
	if got, _ := firstPassing(ctx, 1, func(i int) bool { return i == 0 }); got != 0 {
		t.Fatalf("n=1: got %d", got)
	}
}

// TestFirstPassingNoTracer asserts that the scan returns the same answer
// with and without a tracer on the context (no tracer is the production
// default), and that it adds no span of its own under the caller's.
func TestFirstPassingNoTracer(t *testing.T) {
	try := func(i int) bool { return i >= 7 }
	if idx, complete := firstPassing(context.Background(), 10, try); idx != 7 || !complete {
		t.Fatalf("untraced: firstPassing = (%d, %v), want (7, true)", idx, complete)
	}
	ctx, root := trace.NewTracer().StartRoot(context.Background(), "validate")
	idx, complete := firstPassing(ctx, 10, try)
	root.End()
	if idx != 7 || !complete {
		t.Fatalf("traced: firstPassing = (%d, %v), want (7, true)", idx, complete)
	}
	if kids := root.Children(); len(kids) != 0 {
		t.Fatalf("firstPassing created %d spans under validate, want 0", len(kids))
	}
}

// TestSynthesizeFieldProgramParallelMatchesSerial runs the same synthesis
// call at GOMAXPROCS 1 and 4 and requires the identical program, so the
// concurrent union fan-out of core.UnionLearners cannot change ranking.
func TestSynthesizeFieldProgramParallelMatchesSerial(t *testing.T) {
	doc, _ := newFakeDomain(fakeText)
	m := schema.MustParse(rowSchema)
	lines := lineSpans(fakeText)
	cr := Highlighting{}
	cr.Add("row", lines[0], lines[1], lines[2])
	w0, _ := wordOfLine(lines[0])
	fi := m.FieldByColor("a")

	synth := func() string {
		fp, err := SynthesizeFieldProgram(doc, m, cr, fi,
			[]region.Region{w0}, nil, map[string]bool{"row": true})
		if err != nil {
			t.Fatal(err)
		}
		return fp.Reg.String()
	}

	prev := runtime.GOMAXPROCS(1)
	serial := synth()
	runtime.GOMAXPROCS(4)
	parallel := synth()
	runtime.GOMAXPROCS(prev)

	if serial != parallel {
		t.Fatalf("serial learned %s, parallel learned %s", serial, parallel)
	}
	// Also at the sequence level: field row against the whole document.
	rowFi := m.FieldByColor("row")
	synthRow := func() string {
		fp, err := SynthesizeFieldProgram(doc, m, Highlighting{}, rowFi,
			[]region.Region{lines[0], lines[1]}, nil, map[string]bool{})
		if err != nil {
			t.Fatal(err)
		}
		return fp.Seq.String()
	}
	runtime.GOMAXPROCS(1)
	serialRow := synthRow()
	runtime.GOMAXPROCS(4)
	parallelRow := synthRow()
	runtime.GOMAXPROCS(prev)
	if serialRow != parallelRow {
		t.Fatalf("serial learned %s, parallel learned %s", serialRow, parallelRow)
	}
}

package bench_test

import (
	"runtime"
	"testing"

	"flashextract/internal/bench"
	"flashextract/internal/engine"
	"flashextract/internal/region"
)

// fieldPrograms synthesizes every field of a task ⊥-relative from two
// golden examples at the given GOMAXPROCS, which sizes the union fan-out,
// and returns the learned program text per color.
func fieldPrograms(t *testing.T, task *bench.Task, procs int) map[string]string {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))

	out := map[string]string{}
	for _, fi := range task.Schema.Fields() {
		golden := task.Golden[fi.Color()]
		if len(golden) == 0 {
			continue
		}
		pos := golden
		if len(pos) > 2 {
			pos = pos[:2]
		}
		fp, err := engine.SynthesizeFieldProgram(
			task.Doc, task.Schema, engine.Highlighting{}, fi,
			append([]region.Region(nil), pos...), nil, map[string]bool{})
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d field %s: %v", procs, fi.Color(), err)
		}
		out[fi.Color()] = fp.P.String()
	}
	return out
}

// TestDifferentialParallelValidation is the differential harness for the
// concurrent union fan-out of core.UnionLearners, whose candidates the
// rank-order validation scan then checks: for every corpus document (plus
// the hadoop-xl stress document), synthesis at GOMAXPROCS=4 must return
// bit-identical programs to the serial reference at GOMAXPROCS=1. Any
// divergence means parallelism changed candidate ranking.
func TestDifferentialParallelValidation(t *testing.T) {
	for _, task := range corpusTasks(t) {
		t.Run(task.Name, func(t *testing.T) {
			serial := fieldPrograms(t, task, 1)
			parallel := fieldPrograms(t, task, 4)
			if len(serial) != len(parallel) {
				t.Fatalf("serial learned %d fields, parallel %d", len(serial), len(parallel))
			}
			for color, want := range serial {
				if got := parallel[color]; got != want {
					t.Errorf("field %s:\n  serial:   %s\n  parallel: %s", color, want, got)
				}
			}
		})
	}
}

package bench_test

import (
	"testing"
	"time"

	"flashextract/internal/bench"
	"flashextract/internal/bench/corpus"
	"flashextract/internal/core"
	"flashextract/internal/engine"
	"flashextract/internal/region"
)

// corpusTasks returns the differential task set: the full corpus plus the
// hadoop-xl stress document, sliced to a cross-domain sample in -short
// runs.
func corpusTasks(t *testing.T) []*bench.Task {
	t.Helper()
	tasks := corpus.All()
	if xl := corpus.ByName("hadoop-xl"); xl != nil {
		tasks = append(tasks, xl)
	} else {
		t.Error("hadoop-xl stress document missing from corpus")
	}
	if testing.Short() {
		short := tasks[:0:0]
		for i, task := range tasks {
			if i%5 == 0 || task.Name == "hadoop-xl" {
				short = append(short, task)
			}
		}
		tasks = short
	}
	return tasks
}

// TestDifferentialIncrementalForcedK is the differential harness for
// incremental candidate reuse in the monotone-refinement regime: golden
// regions are added one at a time as positives and the session re-learns
// after each. Every step must satisfy the incremental contract — a step
// that fell back to cold synthesis must infer highlighting identical to
// the from-scratch session's same step (same spec, same deterministic
// synthesis), and a step served from retained state must keep the
// highlighting of the previous step unchanged (the new example confirmed
// the program; see internal/engine/incremental.go). The regime is where
// hits actually happen, so the run must also record reuse — a zero hit
// count would mean the harness is vacuously comparing two cold paths.
func TestDifferentialIncrementalForcedK(t *testing.T) {
	res := bench.MeasureInteractive(corpusTasks(t), 3)
	for _, tr := range res.Tasks {
		if tr.Divergences != 0 || tr.StabilityViolations != 0 {
			t.Errorf("task %s: %d fallback-step divergences from cold, %d hit-step stability violations",
				tr.Task, tr.Divergences, tr.StabilityViolations)
			for _, f := range tr.Fields {
				if f.Skipped != "" {
					t.Logf("task %s field %s skipped: %s", tr.Task, f.Color, f.Skipped)
				}
			}
		}
	}
	if res.Hits == 0 {
		t.Error("no incremental hits across the corpus; the differential is vacuous")
	}
	for _, tr := range res.Tasks {
		if tr.Task == "hadoop-xl" && tr.Hits == 0 {
			t.Error("hadoop-xl recorded no incremental hits")
		}
	}
}

// TestDifferentialIncrementalTopDown replays the mismatch-driven top-down
// workflow — the adversarial regime for reuse, where the simulator keeps
// adding examples that contradict the current program — with incremental
// reuse off and on. Every field must converge with the same outcome, the
// same number of iterations, and the same example counts: any drift means
// an incremental Learn returned different highlighting than a cold one and
// steered the refinement loop elsewhere.
func TestDifferentialIncrementalTopDown(t *testing.T) {
	for _, task := range corpusTasks(t) {
		t.Run(task.Name, func(t *testing.T) {
			s := engine.NewSession(task.Doc, task.Schema)
			s.SetIncremental(false)
			cold := bench.RunTopDownIn(s, task)
			inc := bench.RunTopDown(task)
			if len(cold.Fields) != len(inc.Fields) {
				t.Fatalf("cold ran %d fields, incremental %d", len(cold.Fields), len(inc.Fields))
			}
			for i, cf := range cold.Fields {
				nf := inc.Fields[i]
				if cf.Succeeded != nf.Succeeded || cf.FailReason != nf.FailReason ||
					cf.Iterations != nf.Iterations || cf.Positives != nf.Positives ||
					cf.Negatives != nf.Negatives {
					t.Errorf("field %s diverged:\n  cold:        %+v\n  incremental: %+v",
						cf.Color, cf, nf)
				}
			}
		})
	}
}

// TestDifferentialIncrementalUnderBudget pins the budget interaction on a
// real corpus document: with a candidate cap installed, an incremental
// session must behave exactly like a cold one on every forced-k step —
// same outcome, same program, same highlighting, same exhaustion flag —
// and must never record a hit, because reuse skips the learner's candidate
// accounting and would otherwise make budget trips depend on cache state.
func TestDifferentialIncrementalUnderBudget(t *testing.T) {
	task := corpus.All()[0]
	for _, budget := range []core.SynthBudget{
		{MaxCandidates: 1},
		{MaxCandidates: 1000000},
	} {
		cold := engine.NewSession(task.Doc, task.Schema)
		cold.SetIncremental(false)
		inc := engine.NewSession(task.Doc, task.Schema)
		inc.SetIncremental(true)
		cold.SetBudget(budget)
		inc.SetBudget(budget)
		for _, fi := range task.Schema.Fields() {
			color := fi.Color()
			golden := append([]region.Region(nil), task.Golden[color]...)
			region.Sort(golden)
			kMax := 3
			if kMax > len(golden) {
				kMax = len(golden)
			}
			for k := 1; k <= kMax; k++ {
				if err := cold.AddPositive(color, golden[k-1]); err != nil {
					t.Fatalf("cap=%d field %s k=%d: %v", budget.MaxCandidates, color, k, err)
				}
				if err := inc.AddPositive(color, golden[k-1]); err != nil {
					t.Fatalf("cap=%d field %s k=%d: %v", budget.MaxCandidates, color, k, err)
				}
				cfp, cout, cerr := cold.Learn(color)
				ifp, iout, ierr := inc.Learn(color)
				if (cerr == nil) != (ierr == nil) || (cerr != nil && cerr.Error() != ierr.Error()) {
					t.Fatalf("cap=%d field %s k=%d: cold err %v, incremental err %v",
						budget.MaxCandidates, color, k, cerr, ierr)
				}
				if cerr != nil {
					break
				}
				if got, want := fieldProgramString(ifp), fieldProgramString(cfp); got != want {
					t.Errorf("cap=%d field %s k=%d program:\n  cold:        %s\n  incremental: %s",
						budget.MaxCandidates, color, k, want, got)
				}
				if len(cout) != len(iout) {
					t.Errorf("cap=%d field %s k=%d: cold inferred %d regions, incremental %d",
						budget.MaxCandidates, color, k, len(cout), len(iout))
				}
				cp, ip := cold.LastPartial(color), inc.LastPartial(color)
				if (cp != nil) != (ip != nil) || (cp != nil && cp.Exhausted != ip.Exhausted) {
					t.Errorf("cap=%d field %s k=%d: partial-result mismatch (cold %+v, incremental %+v)",
						budget.MaxCandidates, color, k, cp, ip)
				}
			}
		}
		if hits := inc.Stats().IncrementalHits; hits != 0 {
			t.Errorf("cap=%d: capped incremental session recorded %d hits; capped calls must go cold",
				budget.MaxCandidates, hits)
		}
	}
}

// TestInteractiveSpeedupOnStressDocument is the acceptance gate of the
// interactive-latency benchmark: on the hadoop-xl stress document the
// median time-to-learn of the k-th example (k≥2) must improve by at least
// 2× with incremental reuse, with actual hits recorded. It mirrors what
// `make bench-interactive` publishes to BENCH_interactive.json.
func TestInteractiveSpeedupOnStressDocument(t *testing.T) {
	if testing.Short() {
		t.Skip("latency measurement is skipped in -short runs")
	}
	xl := corpus.ByName("hadoop-xl")
	if xl == nil {
		t.Fatal("hadoop-xl stress document missing from corpus")
	}
	res := bench.MeasureInteractive([]*bench.Task{xl}, 3)
	if res.Divergences != 0 || res.StabilityViolations != 0 {
		t.Fatalf("hadoop-xl: %d fallback-step divergences, %d stability violations",
			res.Divergences, res.StabilityViolations)
	}
	if res.Hits == 0 {
		t.Fatal("no incremental hits on hadoop-xl")
	}
	if res.Incremental.Count == 0 {
		t.Fatal("no k≥2 samples collected on hadoop-xl")
	}
	if res.SpeedupP50 < 2 {
		t.Errorf("k≥2 p50 speedup %.2fx < 2x (cold p50 %v, incremental p50 %v)",
			res.SpeedupP50, time.Duration(res.Cold.P50), time.Duration(res.Incremental.P50))
	}
}

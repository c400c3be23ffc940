package bench

import (
	"fmt"
	"time"

	"flashextract/internal/engine"
	"flashextract/internal/region"
)

// RunTopDown simulates the recommended top-down session workflow of §3:
// fields are learned in top-down topological order, each relative to its
// nearest materialized ancestor, and committed once the inferred
// highlighting matches the golden annotation. The paper argues this
// ordering offers "a greater chance of success" and fewer examples than
// the hardest (⊥-relative) scenario measured by Run; comparing the two is
// the ancestor-relative ablation in EXPERIMENTS.md.
func RunTopDown(t *Task) TaskResult {
	return RunTopDownIn(engine.NewSession(t.Doc, t.Schema), t)
}

// RunTopDownIn is RunTopDown driving a caller-supplied session over the
// task's document and schema, so a caller can configure the session (for
// example SetIncremental) before the workflow starts.
func RunTopDownIn(s *engine.Session, t *Task) TaskResult {
	tr := TaskResult{Task: t}
	failed := false
	for _, fi := range t.Schema.Fields() {
		fr := FieldResult{Color: fi.Color()}
		if failed {
			fr.FailReason = "skipped: an ancestor field failed"
			tr.Fields = append(tr.Fields, fr)
			continue
		}
		fr = simulateSessionField(s, fi.Color(), t.Golden[fi.Color()])
		fr.Color = fi.Color()
		if fr.Succeeded {
			if err := s.Commit(fi.Color()); err != nil {
				fr.Succeeded = false
				fr.FailReason = fmt.Sprintf("commit failed: %v", err)
			}
		}
		if !fr.Succeeded {
			failed = true
		}
		tr.Fields = append(tr.Fields, fr)
	}
	return tr
}

// simulateSessionField is the session-based analogue of SimulateField: it
// feeds examples through the interactive API so that learning happens
// relative to whatever ancestor has been materialized.
func simulateSessionField(s *engine.Session, color string, golden []region.Region) FieldResult {
	fr := FieldResult{}
	if len(golden) == 0 {
		fr.FailReason = "no golden instances"
		return fr
	}
	golden = append([]region.Region(nil), golden...)
	region.Sort(golden)
	if err := s.AddPositive(color, golden[0]); err != nil {
		fr.FailReason = err.Error()
		return fr
	}
	positives := []region.Region{golden[0]}
	negatives := 0
	for iter := 1; iter <= MaxIterations; iter++ {
		fr.Iterations = iter
		fr.Positives = len(positives)
		fr.Negatives = negatives
		start := time.Now()
		_, out, err := s.Learn(color)
		fr.LastSynth = time.Since(start)
		if err != nil {
			fr.FailReason = err.Error()
			return fr
		}
		missing, spurious, prefix := firstMismatch(golden, out)
		if missing == nil && spurious == nil {
			fr.Succeeded = true
			return fr
		}
		add := func(r region.Region, positive bool) error {
			if positive {
				positives = addRegion(positives, r)
				return s.AddPositive(color, r)
			}
			negatives++
			return s.AddNegative(color, r)
		}
		for _, r := range prefix {
			if err := add(r, true); err != nil {
				fr.FailReason = err.Error()
				return fr
			}
		}
		var stepErr error
		switch {
		case missing != nil:
			stepErr = add(missing, true)
		default:
			if g := overlappingGolden(golden, positives, spurious); g != nil {
				stepErr = add(g, true)
			} else {
				stepErr = add(spurious, false)
			}
		}
		if stepErr != nil {
			fr.FailReason = stepErr.Error()
			return fr
		}
	}
	fr.FailReason = fmt.Sprintf("no convergence within %d iterations", MaxIterations)
	return fr
}

// RunAllTopDown simulates the top-down workflow over a task set.
func RunAllTopDown(tasks []*Task) []TaskResult {
	out := make([]TaskResult, len(tasks))
	for i, t := range tasks {
		out[i] = RunTopDown(t)
	}
	return out
}

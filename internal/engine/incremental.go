package engine

import (
	"context"
	"time"

	"flashextract/internal/core"
	"flashextract/internal/logx"
	"flashextract/internal/metrics"
	"flashextract/internal/region"
	"flashextract/internal/schema"
	"flashextract/internal/trace"
)

// Incremental interactive synthesis: every Learn call of the §3 refinement
// loop used to restart Algorithm 2 from scratch, paying full learner cost
// on the k-th example. The session instead keeps, per field, the program
// of the last complete synthesis call together with the session's commit
// epoch at that call, which names the environment (committed highlighting
// + materialized set) the program was validated in. When the user adds
// examples and re-learns under the same epoch, the session re-checks that
// one program against the extended spec — consistency with the examples
// plus the usual schema validation — instead of invoking the DSL learner
// again. No candidate list is needed: a field's examples only grow until
// ClearExamples, which drops the program, and under a grown spec and an
// unchanged environment every candidate the learner ranked above the
// program fails again (a candidate inconsistent with the old spec stays
// inconsistent with the extended one, and more negatives only add
// validation failure modes). So "the previous program still passes" is
// exactly the condition under which a scan of the old ranked list would
// have returned it. In every other case — a field was committed since, the
// example split fails, or the program no longer passes — the session falls
// back to a cold re-learn. A budget-truncated call leaves nothing to reuse.
//
// The reuse contract is program stability, the interactive-synthesis
// property of Le et al.: a hit happens exactly when every new example
// confirms the current program, and it returns that program, so the
// highlighting the user sees does not move under confirming examples. A
// hit is deliberately NOT required to match what a from-scratch learner
// would now rank first: DSL candidate generation is example-driven (new
// examples discover new dynamic tokens, and the per-side attribute cap
// makes generation lossy), so a fresh learner at the larger spec can
// produce a different — equally consistent — program, yanking the
// highlighting out from under an example that agreed with it. Whenever the
// extended spec CORRECTS the program instead (a positive the program
// missed, a negative it overlapped), the program fails, the call falls
// back cold, and the result is bit-identical to a from-scratch session by
// determinism of the synthesis pipeline. The incremental-vs-cold
// differential suite in internal/bench pins both halves of the contract
// over the full corpus: mismatch-driven refinement (every step corrects,
// so every step must equal cold), and forced-confirmation refinement
// (every hit must keep the previous highlighting; every fallback must
// equal cold).

// SetIncremental turns incremental program reuse on or off for subsequent
// Learn calls. Turning it off also forgets which programs are reusable, so
// a later re-enable cannot reuse a program learned while disabled
// semantics were in effect.
func (s *Session) SetIncremental(on bool) {
	s.incremental = on
	if !on {
		s.learnedEpoch = map[string]int{}
	}
}

// Incremental reports whether the session reuses the current program of a
// field across Learn calls.
func (s *Session) Incremental() bool { return s.incremental }

// consistentSeqCandidate reports whether a sequence program is consistent
// with the example split: within every input, the positives are a
// subsequence of its output and no output region equals or overlaps a
// negative — the same consistency notion the DSL learners enforce
// (core.ConsistentSeq plus the overlap conflict predicate).
func consistentSeqCandidate(p core.Program, exs []SeqRegionExample) bool {
	for _, ex := range exs {
		out, err := ExtractSeq(p, ex.Input)
		if err != nil {
			return false
		}
		if !regionSubseq(ex.Positive, out) {
			return false
		}
		for _, o := range out {
			for _, n := range ex.Negative {
				if o == n || o.Overlaps(n) {
					return false
				}
			}
		}
	}
	return true
}

// consistentRegCandidate reports whether a region program still extracts
// exactly the positive example of every input that has one.
func consistentRegCandidate(p core.Program, exs []RegionExample) bool {
	for _, ex := range exs {
		out, err := Extract(p, ex.Input)
		if err != nil || out == nil || out != ex.Output {
			return false
		}
	}
	return true
}

// regionSubseq reports whether sub occurs as a subsequence of seq.
func regionSubseq(sub, seq []region.Region) bool {
	i := 0
	for _, v := range seq {
		if i == len(sub) {
			return true
		}
		if v == sub[i] {
			i++
		}
	}
	return i == len(sub)
}

// tryIncremental attempts to serve one Learn call by re-checking the
// field's current program against the extended spec. The context must
// already carry the session's metric sink and the call's budget. ok is
// false when there is no reusable program or it does not pass — the
// caller then runs the cold path. A failed attempt on a reusable program
// (budget, stale epoch, example split, failed check) counts one
// incremental fallback; a call with no reusable program counts neither.
func (s *Session) tryIncremental(ctx context.Context, fi *schema.FieldInfo, pos, neg []region.Region) (*FieldProgram, *PartialResult, bool) {
	epoch, ok := s.learnedEpoch[fi.Color()]
	if !ok {
		return nil, nil, false
	}
	fp := s.programs[fi.Color()]
	sink := metrics.From(ctx)
	bud := core.BudgetFrom(ctx)
	var fsp *trace.Span // nil (a no-op) until the check starts
	fallback := func(why string) (*FieldProgram, *PartialResult, bool) {
		fsp.SetBool("ok", false)
		sink.Count(metrics.IncrementalFallbacks, 1)
		logx.From(ctx).Debug("incremental fallback", "field", fi.Color(), "why", why)
		return nil, nil, false
	}
	if bud.ExhaustedNow() {
		// The call's budget is already dead: the cold path owns the
		// graceful-degradation semantics.
		return fallback("budget_exhausted")
	}
	if s.budget.MaxCandidates > 0 {
		// A candidate cap meters the learner's search; the re-check does
		// not run the learner, so its candidate accounting is incomparable
		// with cold's and reuse would make budget trips depend on session
		// history. Capped calls always take the cold path, keeping trip
		// behavior identical to a session that never reused anything.
		return fallback("candidate_budget")
	}
	if epoch != s.epoch {
		return fallback("highlighting_changed")
	}

	var inputs []region.Region
	if fp.Ancestor == nil {
		inputs = []region.Region{s.doc.WholeRegion()}
	} else {
		inputs = s.cr[fp.Ancestor.Color()]
	}

	start := time.Now()
	ctx, fsp = trace.Start(ctx, "field:"+fi.Color())
	fsp.SetString("path", fi.Path)
	fsp.SetBool("incremental", true)
	fsp.SetInt("pos", int64(len(pos)))
	fsp.SetInt("neg", int64(len(neg)))
	defer fsp.End()

	// Build the per-ancestor example split exactly as the cold driver
	// would; a split error (an example outside every ancestor region, two
	// positives in one structure region) means this ancestor can no longer
	// explain the spec and the cold driver must re-run its ancestor loop.
	var consistent func() bool
	if fp.IsSeq() {
		exs, err := seqExamplesFor(fi, fp.Ancestor, inputs, pos, neg)
		if err != nil {
			return fallback("example_split")
		}
		consistent = func() bool { return consistentSeqCandidate(fp.P, exs) }
	} else {
		exs, err := regExamplesFor(fi, fp.Ancestor, inputs, pos)
		if err != nil {
			return fallback("example_split")
		}
		consistent = func() bool { return consistentRegCandidate(fp.P, exs) }
	}

	// Candidates are NOT counted against the budget unless the program
	// passes, so a failed attempt leaves the candidate budget exactly as a
	// pure cold call would see it — the fallback stays differentially
	// identical to cold.
	_, vsp := trace.Start(ctx, "validate")
	vsp.SetInt("candidates", 1)
	passed := consistent() && validatesCandidate(s.doc, s.sch, s.cr, fi, neg, fp)
	vsp.SetBool("ok", passed)
	vsp.End()
	switch {
	case bud.ExhaustedNow():
		return fallback("budget_exhausted")
	case !passed:
		return fallback("program_failed")
	}

	bud.AddCandidates(1)
	sink.Count(metrics.LearnCalls, 1)
	sink.Count(metrics.CandidatesExplored, 1)
	sink.Count(metrics.IncrementalHits, 1)
	sink.Observe(metrics.PhaseValidate, time.Since(start).Seconds())
	fsp.SetInt("candidates", 1)
	fsp.SetBool("ok", true)

	pr := &PartialResult{CandidatesExplored: bud.Explored(), Elapsed: time.Since(start)}
	logx.From(ctx).Debug("incremental hit", "field", fi.Color(), "elapsed", pr.Elapsed)
	return fp, pr, true
}

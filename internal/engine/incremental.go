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
// on the k-th example. Following the incremental maintenance of synthesis
// state in "Interactive Program Synthesis" (Le et al.), the session now
// retains, per field, the full ranked candidate list of the last complete
// synthesis call together with the spec slice it was learned from and the
// session's commit epoch, which names the environment (committed
// highlighting + materialized set) the list was validated in. When the
// user adds examples and re-learns, the retained candidates are
// intersected with the extended spec — a consistency filter plus the usual
// schema-validation scan, fused into one rank-ordered firstPassing pass —
// instead of invoking the DSL learner again. Sound reuse rests on two
// monotonicity facts about a grown spec under an unchanged environment: a
// candidate inconsistent with the old spec stays inconsistent with the
// extended one, and a candidate that failed the schema-validation check
// keeps failing (more negatives only add failure modes; the committed
// highlighting is pinned by the commit epoch). So every retained candidate
// ranked before the previously selected winner provably fails again, and
// the scan only has to re-check the prefix ending at the winner: when the
// winner itself survives, it is returned unchanged. In every other case — a field was committed since, examples
// were removed or cleared, or the winner no longer survives — the session
// falls back to a cold re-learn. A budget-truncated call retains nothing.
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
// missed, a negative it overlapped), the winner dies, the call falls back
// cold, and the result is bit-identical to a from-scratch session by
// determinism of the synthesis pipeline. The incremental-vs-cold
// differential suite in internal/bench pins both halves of the contract
// over the full corpus: mismatch-driven refinement (every step corrects,
// so every step must equal cold), and forced-confirmation refinement
// (every hit must keep the previous highlighting; every fallback must
// equal cold).

// incState is the retained per-field learner state: the candidates of the
// last complete synthesis call, plus the spec slice and the commit epoch
// they were learned in.
type incState struct {
	learnedCandidates
	pos, neg []region.Region
	epoch    int
}

// SetIncremental turns incremental candidate reuse on or off for
// subsequent Learn calls. Turning it off also drops any retained state, so
// a later re-enable cannot reuse candidates captured while disabled
// semantics were in effect.
func (s *Session) SetIncremental(on bool) {
	s.incremental = on
	if !on {
		s.inc = map[string]*incState{}
	}
}

// Incremental reports whether the session reuses retained candidate state
// across Learn calls.
func (s *Session) Incremental() bool { return s.incremental }

// regionEq is the equality predicate of example specs.
func regionEq(a, b region.Region) bool { return a == b }

// consistentSeqCandidate reports whether a retained sequence program is
// consistent with the example split: within every input, the positives are
// a subsequence of its output and no output region equals or overlaps a
// negative — the same consistency notion the DSL learners enforce
// (core.ConsistentSeq plus the overlap conflict predicate).
func consistentSeqCandidate(p SeqRegionProgram, exs []SeqRegionExample) bool {
	for _, ex := range exs {
		out, err := p.ExtractSeq(ex.Input)
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

// consistentRegCandidate reports whether a retained region program still
// extracts exactly the positive example of every input that has one.
func consistentRegCandidate(p RegionProgram, exs []RegionExample) bool {
	for _, ex := range exs {
		out, err := p.Extract(ex.Input)
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

// tryIncremental attempts to serve one Learn call from the retained
// candidate state of the color. The context must already carry the
// session's metric sink and the call's budget. ok is false when the state
// is missing or not reusable — the caller then runs the cold path, which
// captures fresh state. A reusable-but-failed attempt (stale epoch, removed
// examples, no surviving candidate) counts one incremental fallback; a call
// with no retained state counts neither.
func (s *Session) tryIncremental(ctx context.Context, fi *schema.FieldInfo, pos, neg []region.Region) (*FieldProgram, *PartialResult, bool) {
	if !s.incremental {
		return nil, nil, false
	}
	st := s.inc[fi.Color()]
	if st == nil {
		return nil, nil, false
	}
	sink := metrics.From(ctx)
	bud := core.BudgetFrom(ctx)
	fallback := func(why string) (*FieldProgram, *PartialResult, bool) {
		s.stats.IncrementalFallbacks++
		sink.Count(metrics.IncrementalFallbacks, 1)
		logx.From(ctx).Debug("incremental fallback", "field", fi.Color(), "why", why)
		return nil, nil, false
	}
	if bud.ExhaustedNow() {
		// The call's budget is already dead: the cold path owns the
		// graceful-degradation semantics, and partial state produced under
		// exhaustion must never seed future reuse.
		return fallback("budget_exhausted")
	}
	if s.budget.MaxCandidates > 0 {
		// A candidate cap meters the learner's search; the incremental scan
		// does not run the learner, so its candidate accounting is
		// incomparable with cold's and reuse would make budget trips depend
		// on cache state. Capped calls always take the cold path, keeping
		// trip behavior identical to a session that never reused anything.
		return fallback("candidate_budget")
	}
	if st.epoch != s.epoch {
		return fallback("highlighting_changed")
	}
	if len(pos) == 0 {
		// The cold path produces the canonical "at least one positive
		// example" error.
		return fallback("no_examples")
	}
	if !core.ExtendsSpec(st.pos, pos, regionEq) || !core.ExtendsSpec(st.neg, neg, regionEq) {
		return fallback("examples_removed")
	}

	var inputs []region.Region
	if st.anc == nil {
		inputs = []region.Region{s.doc.WholeRegion()}
	} else {
		inputs = s.cr[st.anc.Color()]
	}

	start := time.Now()
	ctx, fsp := trace.Start(ctx, "field:"+fi.Color())
	fsp.SetString("path", fi.Path)
	fsp.SetBool("incremental", true)
	fsp.SetInt("pos", int64(len(pos)))
	fsp.SetInt("neg", int64(len(neg)))
	defer fsp.End()

	// Build the per-ancestor example split exactly as the cold driver
	// would; a split error (an example outside every ancestor region, two
	// positives in one structure region) means this ancestor can no longer
	// explain the spec and the cold driver must re-run its ancestor loop.
	var try func(i int) bool
	if st.isSeq {
		exs, err := seqExamplesFor(fi, st.anc, inputs, pos, neg)
		if err != nil {
			fsp.SetBool("ok", false)
			return fallback("example_split")
		}
		try = func(i int) bool {
			return consistentSeqCandidate(st.fps[i].Seq, exs) &&
				validatesCandidate(s.doc, s.sch, s.cr, fi, neg, st.fps[i])
		}
	} else {
		exs, err := regExamplesFor(fi, st.anc, inputs, pos)
		if err != nil {
			fsp.SetBool("ok", false)
			return fallback("example_split")
		}
		try = func(i int) bool {
			return consistentRegCandidate(st.fps[i].Reg, exs) &&
				validatesCandidate(s.doc, s.sch, s.cr, fi, neg, st.fps[i])
		}
	}

	// Intersect-and-validate in retained rank order over the prefix ending
	// at the previous winner; see the package comment for why candidates
	// past the winner must not be accepted. Candidates are NOT counted
	// against the budget unless the scan is accepted, so a failed attempt
	// leaves the candidate budget exactly as a pure cold call would see
	// it — the fallback stays differentially identical to cold.
	n := st.winnerIdx + 1
	vctx, vsp := trace.Start(ctx, "validate")
	vsp.SetInt("candidates", int64(n))
	i, complete := firstPassing(vctx, n, try)
	vsp.SetInt("selected", int64(i))
	vsp.SetBool("complete", complete)
	vsp.End()
	if i != st.winnerIdx || !complete || bud.ExhaustedNow() {
		fsp.SetBool("ok", false)
		switch {
		case !complete || bud.ExhaustedNow():
			return fallback("scan_truncated")
		case i >= 0:
			// A candidate the previous call rejected now passes; the
			// monotonicity assumptions were violated (this should be
			// impossible), so trust the cold path instead.
			return fallback("rank_changed")
		default:
			return fallback("winner_died")
		}
	}

	bud.AddCandidates(int64(i + 1))
	sink.Count(metrics.LearnCalls, 1)
	sink.Count(metrics.CandidatesExplored, int64(i+1))
	sink.Count(metrics.IncrementalHits, 1)
	sink.Observe(metrics.PhaseValidate, time.Since(start).Seconds())
	s.stats.IncrementalHits++
	fsp.SetInt("candidates", int64(i+1))
	fsp.SetBool("ok", true)

	// The retained candidate list stays valid for further extensions of the
	// new, larger spec; only the spec slice advances.
	st.pos = append([]region.Region(nil), pos...)
	st.neg = append([]region.Region(nil), neg...)

	pr := &PartialResult{
		Exhausted:          bud.Reason() != "",
		Reason:             bud.Reason(),
		CandidatesExplored: bud.Explored(),
		Elapsed:            time.Since(start),
	}
	if pr.Exhausted {
		sink.Count(metrics.PartialResults, 1)
	}
	logx.From(ctx).Debug("incremental hit",
		"field", fi.Color(), "candidates", i+1, "elapsed", pr.Elapsed)
	return st.fps[i], pr, true
}

// captureIncremental folds the outcome of a cold synthesis call into the
// retained state of the color: a successful, complete call (budget never
// tripped) replaces the state with the fresh candidate list stamped with
// the current epoch and spec; anything else — an error, a truncated call,
// reuse disabled — drops the state so partial results can never seed a
// later intersection.
func (s *Session) captureIncremental(color string, capture learnedCandidates, pr *PartialResult, err error, pos, neg []region.Region) {
	if !s.incremental || err != nil || pr.Exhausted {
		delete(s.inc, color)
		return
	}
	s.inc[color] = &incState{
		learnedCandidates: capture,
		pos:               append([]region.Region(nil), pos...),
		neg:               append([]region.Region(nil), neg...),
		epoch:             s.epoch,
	}
}

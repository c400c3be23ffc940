package core

import (
	"context"
	"runtime"
	"sort"
	"sync"

	"flashextract/internal/metrics"
	"flashextract/internal/trace"
)

// Example is a scalar input/output example: running the desired program in
// State must produce exactly Output.
type Example struct {
	State  State
	Output Value
}

// SeqExample is a sequence example with positive instances: the desired
// program, run in State, must produce a sequence containing Positive as a
// subsequence (Def. 5).
type SeqExample struct {
	State    State
	Positive []Value
}

// ScalarLearner learns the ranked set of scalar programs consistent with a
// set of scalar examples. An empty result means no program exists. The
// context carries cancellation and the call's SynthBudget (see WithBudget);
// learners stop exploring when it expires and return the consistent
// programs found so far.
type ScalarLearner func(ctx context.Context, exs []Example) []Program

// SeqLearner learns the ranked set of sequence programs consistent with a
// set of sequence examples (positive instances only). The context carries
// cancellation and the call's SynthBudget, as for ScalarLearner.
type SeqLearner func(ctx context.Context, exs []SeqExample) []Program

// DefaultCap bounds the length of learner result lists where a cross
// product could otherwise explode. Learners keep the highest-ranked
// programs.
const DefaultCap = 128

// capList keeps the DefaultCap highest-ranked programs of ps.
func capList(ps []Program) []Program {
	if len(ps) > DefaultCap {
		return ps[:DefaultCap]
	}
	return ps
}

// UnionLearners combines the rule learners of a non-terminal: the result is
// the concatenation of each learner's results, in rule order (the N.Learn
// procedure of Fig. 6). The rule learners are independent, so they run
// concurrently when spare processors exist; their results are stitched
// back together in rule order, keeping ranking identical to a serial run.
// A cancelled context stops each learner cooperatively; results produced
// before the cancellation are still returned.
//
// Budget exhaustion degrades to a rule-order prefix in both modes: the
// serial loop breaks at the first exhausted check, and the parallel path
// records which learners were skipped by their start-time probe and keeps
// only the results of the contiguous run of unskipped learners before the
// first skipped one. Without the prefix cut, a slow early learner could be
// skipped while a faster later one (scheduled before the trip) still
// contributed, leaving a rank-order hole that a serial run can never
// produce.
func UnionLearners(learners ...SeqLearner) SeqLearner {
	return unionOf("union", learners)
}

// UnionScalarLearners is UnionLearners for scalar non-terminals.
func UnionScalarLearners(learners ...ScalarLearner) ScalarLearner {
	return unionOf("union_scalar", learners)
}

// unionOf is the body of UnionLearners and UnionScalarLearners, generic
// over the example type; span names the combinator's trace span.
func unionOf[E any, L ~func(context.Context, []E) []Program](span string, learners []L) L {
	return func(ctx context.Context, exs []E) (learned []Program) {
		metrics.From(ctx).Count(metrics.LearnerFanout, int64(len(learners)))
		ctx, sp := trace.Start(ctx, span)
		if sp != nil {
			sp.SetInt("fanout", int64(len(learners)))
			defer func() { endLearnerSpan(sp, len(exs), len(learned)) }()
		}
		bud := BudgetFrom(ctx)
		if len(learners) < 2 || runtime.GOMAXPROCS(0) < 2 {
			var out []Program
			for _, l := range learners {
				if bud.ExhaustedNow() {
					break
				}
				out = append(out, l(ctx, exs)...)
			}
			return out
		}
		parts := make([][]Program, len(learners))
		skipped := make([]bool, len(learners))
		var wg sync.WaitGroup
		for i, l := range learners {
			wg.Add(1)
			go func(i int, l L) {
				defer wg.Done()
				if bud.ExhaustedNow() {
					skipped[i] = true
					return
				}
				parts[i] = l(ctx, exs)
			}(i, l)
		}
		wg.Wait()
		var out []Program
		for i, p := range parts {
			if skipped[i] {
				break
			}
			out = append(out, p...)
		}
		return out
	}
}

// execSeq runs a program expected to return a sequence; ok is false when
// execution fails or the result is not a sequence.
func execSeq(p Program, st State) ([]Value, bool) {
	v, err := execMemoized(p, st)
	if err != nil {
		return nil, false
	}
	seq, err := AsSeq(v)
	if err != nil {
		return nil, false
	}
	return seq, true
}

// ConsistentSeq reports whether p is consistent with the positive instances
// of all sequence examples.
func ConsistentSeq(p Program, exs []SeqExample) bool {
	for _, ex := range exs {
		out, ok := execSeq(p, ex.State)
		if !ok || !IsSubsequence(ex.Positive, out) {
			return false
		}
	}
	return true
}

// ConsistentScalar reports whether p is consistent with all scalar examples.
func ConsistentScalar(p Program, exs []Example) bool {
	for _, ex := range exs {
		v, err := p.Exec(ex.State)
		if err != nil || !Eq(v, ex.Output) {
			return false
		}
	}
	return true
}

// PreferNonOverlapping wraps a sequence learner so that programs whose
// example outputs contain two overlapping (but distinct) values rank as a
// group after programs with pairwise non-overlapping outputs. Instances of
// one field never overlap each other in practice, so an overlapping output
// almost always signals an overfit candidate; the overlapping programs are
// kept as a fallback to preserve completeness.
//
// Within each group the order is cost-then-stable-index deterministic: a
// stable sort by ranking Cost, so equal-cost programs keep the inner
// learner's emission order (see DESIGN.md "Sub-learn replay" → ordering
// contract). The explicit sort pins tie-breaking to the input index rather
// than to whatever order the wrapped learner happened to produce under a
// given timing, so a replay or scheduling change that alters per-learner
// timing can never flip which of two tied programs wins downstream.
func PreferNonOverlapping(l SeqLearner, overlaps func(a, b Value) bool) SeqLearner {
	return func(ctx context.Context, exs []SeqExample) []Program {
		ps := l(ctx, exs)
		if len(ps) <= 1 {
			return ps
		}
		var good, bad []Program
		for _, p := range ps {
			if hasOverlappingOutput(p, exs, overlaps) {
				bad = append(bad, p)
			} else {
				good = append(good, p)
			}
		}
		sortByCostStable(good)
		sortByCostStable(bad)
		return append(good, bad...)
	}
}

// sortByCostStable orders programs by ranking cost, preserving input order
// among equal costs. Cost is computed once per program up front: Cost walks
// the whole operator tree, and sort comparisons are O(n log n).
func sortByCostStable(ps []Program) {
	if len(ps) <= 1 {
		return
	}
	costs := make([]int, len(ps))
	for i, p := range ps {
		costs[i] = Cost(p)
	}
	type ranked struct {
		p Program
		c int
	}
	rs := make([]ranked, len(ps))
	for i := range ps {
		rs[i] = ranked{ps[i], costs[i]}
	}
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].c < rs[j].c })
	for i := range rs {
		ps[i] = rs[i].p
	}
}

func hasOverlappingOutput(p Program, exs []SeqExample, overlaps func(a, b Value) bool) bool {
	for _, ex := range exs {
		out, ok := execSeq(p, ex.State)
		if !ok {
			continue
		}
		if hit, ok := intervalOverlap(out); ok {
			if hit {
				return true
			}
			continue
		}
		for i := 0; i < len(out); i++ {
			for j := i + 1; j < len(out); j++ {
				if !Eq(out[i], out[j]) && overlaps(out[i], out[j]) {
					return true
				}
			}
		}
	}
	return false
}

// intervalOverlap is the O(n log n) pairwise-overlap check over outputs
// that all implement Interval (see that type's contract). It reports
// (overlapping, applicable); applicable is false when any output lacks the
// interface, in which case the caller falls back to the exact pairwise
// loop. A pair of outputs overlaps exactly when their spaces match, their
// intervals strictly intersect, and they are not Eq — which by the
// contract means not span-identical.
func intervalOverlap(out []Value) (overlapping, applicable bool) {
	if len(out) < 2 {
		_, ok := firstNonInterval(out)
		return false, !ok
	}
	type span struct{ start, end int }
	groups := map[any][]span{}
	for _, v := range out {
		iv, ok := v.(Interval)
		if !ok {
			return false, false
		}
		space, s, e := iv.Interval()
		groups[space] = append(groups[space], span{s, e})
	}
	const minInt = -int(^uint(0)>>1) - 1
	for _, g := range groups {
		if len(g) < 2 {
			continue
		}
		sort.Slice(g, func(i, j int) bool {
			if g[i].start != g[j].start {
				return g[i].start < g[j].start
			}
			return g[i].end < g[j].end
		})
		// strictMax: max end among spans starting strictly before the
		// current start run; runMax: max end within the run. A span
		// overlaps an earlier-starting span iff that span ends past its
		// start, and a same-start span iff both are non-empty.
		strictMax, runMax, runStart := minInt, minInt, g[0].start
		for i, v := range g {
			if i > 0 && v == g[i-1] {
				continue // Eq duplicate by the Interval contract
			}
			if v.start != runStart {
				if runMax > strictMax {
					strictMax = runMax
				}
				runMax = minInt
				runStart = v.start
			}
			if strictMax > v.start {
				return true, true
			}
			if runMax > v.start && v.end > v.start {
				return true, true
			}
			if v.end > runMax {
				runMax = v.end
			}
		}
	}
	return false, true
}

// firstNonInterval reports whether out contains a value that does not
// implement Interval (and returns the first such value).
func firstNonInterval(out []Value) (Value, bool) {
	for _, v := range out {
		if _, ok := v.(Interval); !ok {
			return v, true
		}
	}
	return nil, false
}

package core

import (
	"context"
	"slices"
	"sort"

	"flashextract/internal/trace"
)

// DisableCleanUp turns subsumption pruning off (used by the ablation
// benchmarks); candidates are still checked for consistency and ranked.
var DisableCleanUp = false

// CleanUp ranks and prunes a candidate program list. Only the DefaultCap
// highest-ranked candidates of ps are considered. Programs inconsistent
// with the examples (including programs whose execution fails) are dropped
// outright, preserving soundness (Theorem 1). The survivors are ordered by
// ranking cost (see Coster), tie-broken by total output size — this
// realizes the paper's preference for programs that extract fewer regions.
// Finally, a program is removed when an earlier-ranked program's outputs
// are contained in its outputs on every example (it is strictly looser
// than something ranked better, so it can never be the preferred choice).
// Minimal-output programs are never removed, so the subsumption frontier
// of Theorem 3 is preserved.
//
// Both checks compare output values as integer pairs where they can (see
// pruner), and a candidate with exactly the outputs of an earlier-ranked
// one is removed by fingerprint, without a containment check.
//
// CleanUp executes every candidate on every example, which makes it one of
// the hottest loops of synthesis; it counts each candidate against the
// call's budget and stops scanning on exhaustion, keeping the verified
// prefix (and recording the truncation on the budget so the engine can
// surface it as a PartialResult reason).
func CleanUp(ctx context.Context, ps []Program, exs []SeqExample) (kept []Program) {
	ps = capList(ps)
	_, sp := trace.Start(ctx, "cleanup")
	if sp != nil {
		sp.SetInt("candidates", int64(len(ps)))
		defer func() { sp.SetInt("kept", int64(len(kept))); sp.End() }()
	}
	bud := BudgetFrom(ctx)
	bud.AddCandidates(int64(len(ps)))
	type cand struct {
		p    Program
		outs [][]Value
		cost int
		size int
	}
	positives := make([]spanRow, len(exs))
	for j, ex := range exs {
		positives[j], _, _ = projectRow(nil, ex.Positive)
	}
	var cands []cand
	for _, p := range ps {
		// Unconditional clock probe: one iteration executes the candidate
		// over every example, which on large documents costs milliseconds —
		// far too coarse for the sampled Exhausted.
		if bud.ExhaustedNow() {
			bud.NoteTruncation("cleanup")
			break
		}
		rows := make([][]Value, len(exs))
		size := 0
		ok := true
		for j, ex := range exs {
			out, okExec := execSeq(p, ex.State)
			if !okExec || !covers(positives[j], ex.Positive, out) {
				ok = false
				break
			}
			rows[j] = out
			size += len(out)
		}
		if ok {
			cands = append(cands, cand{p: p, outs: rows, cost: Cost(p), size: size})
		}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].cost != cands[j].cost {
			return cands[i].cost < cands[j].cost
		}
		return cands[i].size < cands[j].size
	})
	var result []Program
	var pr pruner
	for _, c := range cands {
		if DisableCleanUp || !pr.subsumed(c.outs) {
			result = append(result, c.p)
		}
	}
	return result
}

// span is an output value as a pair of integers: an Interval's endpoints,
// or (k, k) for a plain int position k.
type span struct{ start, end int }

// before reports whether a comes before b in region order: start
// ascending, then end descending (outer before inner).
func before(a, b span) bool {
	return a.start < b.start || a.start == b.start && a.end > b.end
}

// intSpace is the space of plain int positions, which no Interval shares.
type intSpace struct{}

// spanOf projects v to its space and span; ok is false when v is neither
// an Interval nor an int.
func spanOf(v Value) (space any, s span, ok bool) {
	switch x := v.(type) {
	case int:
		return intSpace{}, span{x, x}, true
	case Interval:
		space, start, end := x.Interval()
		return space, span{start, end}, true
	}
	return nil, span{}, false
}

// spanRow is one row of outputs (a program's output on one example)
// projected to spans. A row projects when its values are all Intervals of
// one space or all ints; by Interval's equality clause, two values of one
// space are then Eq exactly when their spans are equal. ok is false for any
// other row, which is compared with IsSubsequence.
type spanRow struct {
	spans  []span
	space  any
	ok     bool
	sorted bool // in region order (before), so a search can stop early
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// projectRow appends the spans of vals to buf and returns their row, the
// extended buffer and a hash of the spans. The row's spans alias buf, and
// a row that does not project leaves buf as it was.
func projectRow(buf []span, vals []Value) (spanRow, []span, uint64) {
	off := len(buf)
	r := spanRow{ok: true, sorted: true}
	h := uint64(fnvOffset)
	for i, v := range vals {
		space, s, ok := spanOf(v)
		if !ok || i > 0 && space != r.space {
			return spanRow{}, buf[:off], 0
		}
		if i > 0 && before(s, buf[len(buf)-1]) {
			r.sorted = false
		}
		r.space = space
		buf = append(buf, s)
		h = (h ^ uint64(s.start)) * fnvPrime
		h = (h ^ uint64(s.end)) * fnvPrime
	}
	r.spans = buf[off:len(buf):len(buf)]
	return r, buf, (h ^ uint64(len(vals))) * fnvPrime
}

// subsequence reports whether sub occurs within seq preserving order. On
// a sorted seq it stops at the first span past the one it looks for: none
// after it can match.
func subsequence(sub, seq []span, sorted bool) bool {
	if len(sub) > len(seq) {
		return false
	}
	i := 0
	for _, v := range seq {
		if i == len(sub) {
			break
		}
		if v == sub[i] {
			i++
		} else if sorted && before(sub[i], v) {
			return false
		}
	}
	return i == len(sub)
}

// covers reports IsSubsequence(subVals, seq), with sub the row of
// subVals: each value of seq is projected as it is walked and compared
// by span when it lies in sub's space, and with Eq otherwise.
func covers(sub spanRow, subVals, seq []Value) bool {
	if !sub.ok {
		return IsSubsequence(subVals, seq)
	}
	if len(subVals) > len(seq) {
		return false
	}
	i := 0
	for _, v := range seq {
		if i == len(subVals) {
			break
		}
		if space, s, ok := spanOf(v); ok && space == sub.space {
			if s == sub.spans[i] {
				i++
			}
		} else if Eq(subVals[i], v) {
			i++
		}
	}
	return i == len(subVals)
}

// projected is a candidate's outputs, one row per example, with their
// projections and, when every row projects, their fingerprint.
type projected struct {
	rows []spanRow
	outs [][]Value
	fp   uint64
}

// within reports whether k's outputs are contained in c's on every
// example (Def. 6 subsumption of c by k).
func (k projected) within(c projected) bool {
	for j, kr := range k.rows {
		kv, cv := k.outs[j], c.outs[j]
		cr := c.rows[j]
		switch {
		case len(kv) > len(cv):
			return false
		case len(kv) == 0: // contained in any row
		case kr.ok && cr.ok && kr.space == cr.space:
			if !subsequence(kr.spans, cr.spans, cr.sorted) {
				return false
			}
		case !IsSubsequence(kv, cv):
			return false
		}
	}
	return true
}

// sameRows reports whether two candidates whose rows all project have
// equal outputs.
func sameRows(a, b []spanRow) bool {
	for j := range a {
		if len(a[j].spans) != len(b[j].spans) ||
			len(a[j].spans) > 0 && (a[j].space != b[j].space || !slices.Equal(a[j].spans, b[j].spans)) {
			return false
		}
	}
	return true
}

// pruner is CleanUp's subsumption check over candidates taken in rank
// order. It projects each candidate's rows once, into a buffer it reuses,
// and keeps a copy of the rows of every kept candidate for the containment
// checks of the candidates after it. A candidate whose rows all project is
// keyed: it hashes to a fingerprint, and one with exactly the outputs of
// an earlier keyed candidate is subsumed without a containment check. That
// candidate was kept, or a kept candidate subsumed it and subsumes this
// one too. The first keyed candidate of each output is kept in seen, kept
// or not, so that its later copies are found; CleanUp considers at most
// DefaultCap candidates, so seen is searched in order.
type pruner struct {
	spans []span    // the current candidate's spans
	rows  []spanRow // the current candidate's rows, aliasing spans
	kept  []projected
	seen  []projected
}

// subsumed reports whether an earlier candidate's outputs are contained in
// outs on every example, and records the candidate.
func (pr *pruner) subsumed(outs [][]Value) bool {
	size := 0
	for _, vals := range outs {
		size += len(vals)
	}
	if cap(pr.spans) < size {
		pr.spans = make([]span, 0, max(size, 2*cap(pr.spans)))
	}
	pr.spans, pr.rows = pr.spans[:0], pr.rows[:0]
	keyed, h := true, uint64(fnvOffset)
	for _, vals := range outs {
		var r spanRow
		var rh uint64
		r, pr.spans, rh = projectRow(pr.spans, vals)
		pr.rows = append(pr.rows, r)
		keyed = keyed && r.ok
		h = (h ^ rh) * fnvPrime
	}
	c := projected{rows: pr.rows, outs: outs, fp: h}
	if keyed {
		for _, e := range pr.seen {
			if e.fp == h && sameRows(e.rows, c.rows) {
				return true
			}
		}
	}
	subsumed := false
	for _, k := range pr.kept {
		if k.within(c) {
			subsumed = true
			break
		}
	}
	if subsumed && !keyed {
		return true
	}
	c = c.clone(pr.spans)
	if !subsumed {
		pr.kept = append(pr.kept, c)
	}
	if keyed {
		pr.seen = append(pr.seen, c)
	}
	return subsumed
}

// clone copies c's rows and their spans, which lie in order in spans, so
// that the copy outlives the pruner's buffers.
func (c projected) clone(spans []span) projected {
	buf := slices.Clone(spans)
	rows := slices.Clone(c.rows)
	for j := range rows {
		n := len(rows[j].spans)
		rows[j].spans, buf = buf[:n:n], buf[n:]
	}
	return projected{rows: rows, outs: c.outs, fp: c.fp}
}

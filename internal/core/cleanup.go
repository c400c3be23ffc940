package core

import (
	"context"
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
			if !okExec || !IsSubsequence(ex.Positive, out) {
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
	var keptOuts [][][]Value
	for _, c := range cands {
		dominated := false
		if !DisableCleanUp {
			for _, k := range keptOuts {
				contained := true
				for j := range exs {
					if len(k[j]) > len(c.outs[j]) || !IsSubsequence(k[j], c.outs[j]) {
						contained = false
						break
					}
				}
				if contained {
					dominated = true
					break
				}
			}
		}
		if !dominated {
			result = append(result, c.p)
			keptOuts = append(keptOuts, c.outs)
		}
	}
	return result
}

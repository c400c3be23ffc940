package textlang

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"flashextract/internal/core"
	"flashextract/internal/engine"
	"flashextract/internal/poslang"
	"flashextract/internal/region"
	"flashextract/internal/tokens"
	"flashextract/internal/trace"
)

// lang implements engine.Language for text documents.
type lang struct{}

// learnCtx carries the per-synthesis-call learner of the position
// sublanguage, whose token pool the line learners share.
type learnCtx struct {
	pos *poslang.Learner

	// lsFlight single-flights the LS sub-learn per example fingerprint: all
	// three SS rules re-learn LS, and their witness sequences coincide
	// whenever the example regions or positions live on the same lines, so
	// the second and third invocations replay the first result instead of
	// re-exploring every candidate. The learner is deterministic in (doc,
	// pool, examples), so a replay is bit-identical to a recomputation.
	// Results of budget-truncated runs are never cached.
	lsMu     sync.Mutex
	lsFlight map[string]*lsEntry
}

// lsEntry is one in-flight or completed LS sub-learn: done is closed when ps
// is ready, and ok reports whether the result is replayable (false when the
// computation was cut short by the budget).
type lsEntry struct {
	done chan struct{}
	ps   []core.Program
	ok   bool
}

func newLearnCtx(doc *Document, boundary []region.Region) *learnCtx {
	return &learnCtx{pos: poslang.Text.NewLearner(doc.cache, boundary)}
}

// SynthesizeSeqRegion learns N1 programs (Fig. 7): a Merge of pair
// sequence expressions.
func (lang) SynthesizeSeqRegion(ctx context.Context, exs []engine.SeqRegionExample) []core.Program {
	if len(exs) == 0 {
		return nil
	}
	var doc *Document
	var boundary []region.Region
	specs := make([]core.SeqSpec, 0, len(exs))
	for _, ex := range exs {
		in, ok := ex.Input.(Region)
		if !ok {
			return nil
		}
		doc = in.Doc
		spec := core.SeqSpec{State: core.NewState(in).WithExecMemo()}
		for _, p := range ex.Positive {
			pr, ok := p.(Region)
			if !ok {
				return nil
			}
			boundary = append(boundary, pr)
			spec.Positive = append(spec.Positive, pr)
		}
		for _, n := range ex.Negative {
			nr, ok := n.(Region)
			if !ok {
				return nil
			}
			spec.Negative = append(spec.Negative, nr)
		}
		specs = append(specs, spec)
	}
	lc := newLearnCtx(doc, boundary)
	ss := core.PreferNonOverlapping(lc.learnSS(), engine.RegionConflict)
	n1 := core.PreferNonOverlapping(core.MergeOp{A: ss, Less: engine.RegionLess}.Learn, engine.RegionConflict)
	return core.SynthesizeSeqRegionProg(ctx, n1, specs, engine.RegionConflict)
}

// SynthesizeRegion learns N2 programs: Pair(Pos(R0, p1), Pos(R0, p2)).
func (lang) SynthesizeRegion(ctx context.Context, exs []engine.RegionExample) []core.Program {
	return poslang.Text.SynthesizeRegion(ctx, exs)
}

// ---- sequence non-terminal SS and its three rules ----

// learnSS returns the learner for the pair-sequence non-terminal SS.
func (c *learnCtx) learnSS() core.SeqLearner {
	return core.UnionLearners(
		c.linesMap(c.pos.XPair).Learn,
		c.pos.StartSeqMap(c.learnPS()).Learn,
		c.pos.EndSeqMap(c.learnPS()).Learn,
	)
}

// linesMap is LinesMap(λx: F, LS), where f learns the body F: in SS the
// pair λx: Pair(Pos(x,p1), Pos(x,p2)) and in PS the position λx: Pos(x,p).
// Its witness of each output, a region or a position, is the line of R0
// that holds it.
func (c *learnCtx) linesMap(f core.ScalarLearner) core.MapOp {
	return core.MapOp{
		Name: "LinesMap",
		Var:  poslang.X,
		F:    f,
		S:    c.learnLS(),
		Decompose: func(st core.State, y []core.Value) ([]core.Value, error) {
			r0, err := inputRegion(st)
			if err != nil {
				return nil, err
			}
			lines := linesIn(r0)
			out := make([]core.Value, len(y))
			for i, v := range y {
				var lo, hi int
				switch v := v.(type) {
				case Region:
					lo, hi = v.Start, v.End
				case int:
					lo, hi = v, v
				default:
					return nil, fmt.Errorf("textlang: LinesMap output is %T, want a region or a position", v)
				}
				line, ok := lineContaining(lines, lo, hi)
				if !ok {
					return nil, core.ErrNoMatch
				}
				out[i] = line
			}
			return out, nil
		},
	}
}

// ---- line sequence non-terminal LS ----

// learnLS is LS ::= FilterInt(init, iter, FilterBool(b, split(R0,'\n'))).
//
// The returned learner is replay-memoized through the learn context (see
// lsFlight): identical LS example sets — which all three SS rules produce
// whenever their witnesses land on the same lines — are learned once and
// replayed.
func (c *learnCtx) learnLS() core.SeqLearner {
	inner := core.FilterBoolOp{
		Var: poslang.X,
		B:   c.learnPred,
		S:   learnSplit,
	}
	ls := core.FilterIntOp{S: inner.Learn}.Learn
	return func(ctx context.Context, exs []core.SeqExample) []core.Program {
		key, ok := lsKey(exs)
		if !ok {
			return ls(ctx, exs)
		}
		c.lsMu.Lock()
		if c.lsFlight == nil {
			c.lsFlight = map[string]*lsEntry{}
		}
		if e, hit := c.lsFlight[key]; hit {
			c.lsMu.Unlock()
			// The replay leaves a marker span where the recomputation's
			// learner subtree would sit, so traces stay self-explanatory.
			// The SS rules run concurrently (UnionLearners), so a second
			// identical sub-learn may still be in flight: wait for it rather
			// than duplicating its exploration, inside the span, so traced
			// self time charges the wait to the replay and not to the map
			// rule that asked.
			_, sp := trace.Start(ctx, "ls_replay")
			<-e.done
			if e.ok {
				sp.SetInt("programs", int64(len(e.ps)))
				sp.End()
				return e.ps
			}
			sp.End()
			return ls(ctx, exs)
		}
		e := &lsEntry{done: make(chan struct{})}
		c.lsFlight[key] = e
		c.lsMu.Unlock()
		bud := core.BudgetFrom(ctx)
		truncBefore := len(bud.Truncations())
		e.ps = ls(ctx, exs)
		e.ok = !bud.ExhaustedNow() && len(bud.Truncations()) == truncBefore
		if !e.ok {
			// A truncated result is budget-dependent, not a document fact;
			// drop the entry so later callers learn afresh.
			c.lsMu.Lock()
			delete(c.lsFlight, key)
			c.lsMu.Unlock()
		}
		close(e.done)
		return e.ps
	}
}

// lsKey fingerprints an LS example set: the input region and the positive
// line regions of every example. ok is false when the examples are not
// region-shaped (no replay then — learn normally).
func lsKey(exs []core.SeqExample) (string, bool) {
	var b strings.Builder
	for _, ex := range exs {
		r0, err := inputRegion(ex.State)
		if err != nil {
			return "", false
		}
		fmt.Fprintf(&b, "r0:%p:%d-%d|", r0.Doc, r0.Start, r0.End)
		for _, v := range ex.Positive {
			r, ok := v.(Region)
			if !ok {
				return "", false
			}
			fmt.Fprintf(&b, "%d-%d,", r.Start, r.End)
		}
		b.WriteByte(';')
	}
	return b.String(), true
}

// learnSplit is the learner of the fixed expression split(R0, '\n'):
// consistent iff every positive instance is a line of the input region.
func learnSplit(_ context.Context, exs []core.SeqExample) []core.Program {
	for _, ex := range exs {
		out, err := splitLines.Exec(ex.State)
		if err != nil {
			return nil
		}
		lines, err := core.AsSeq(out)
		if err != nil || !core.IsSubsequence(ex.Positive, lines) {
			return nil
		}
	}
	return []core.Program{splitLines}
}

// ---- position sequence non-terminal PS ----

// learnPS is PS ::= LinesMap(λx: Pos(x,p), LS)
//
//	| FilterInt(init, iter, PosSeq(R0, rr)).
func (c *learnCtx) learnPS() core.SeqLearner {
	return core.UnionLearners(c.pos.PS(), c.linesMap(c.pos.XPos).Learn)
}

// ---- line predicate learner ----

// learnPred learns line predicates b by brute-force search over candidate
// regexes derived from the first positive line (and its neighbor lines),
// verified against all examples.
func (c *learnCtx) learnPred(ctx context.Context, exs []core.Example) []core.Program {
	if len(exs) == 0 {
		return []core.Program{linePred{kind: predTrue}}
	}
	v, _ := exs[0].State.Lookup(poslang.X)
	first, ok := v.(Region)
	if !ok {
		return nil
	}
	cands := []linePred{{kind: predTrue}}
	cands = append(cands, candidatesForLine(first.Value(), predStartsWith, predEndsWith, predContains, c.pos.Toks)...)
	if r0, err := inputRegion(exs[0].State); err == nil {
		lines := linesIn(r0)
		for i, l := range lines {
			if l != first {
				continue
			}
			if i > 0 {
				cands = append(cands, candidatesForLine(lines[i-1].Value(), predPredStartsWith, predPredEndsWith, predPredContains, c.pos.Toks)...)
			}
			if i+1 < len(lines) {
				cands = append(cands, candidatesForLine(lines[i+1].Value(), predSuccStartsWith, predSuccEndsWith, predSuccContains, c.pos.Toks)...)
			}
			break
		}
	}

	bud := core.BudgetFrom(ctx)
	bud.AddCandidates(int64(len(cands)))
	var out []core.Program
	seen := map[string]bool{}
	for _, cand := range cands {
		if bud.Exhausted() {
			break
		}
		key := cand.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		ok := true
		for _, ex := range exs {
			v, err := cand.Exec(ex.State)
			if err != nil || v != core.Value(true) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, cand)
		}
	}
	return out
}

// candidatesForLine generates predicate candidates whose regexes are
// derived from the given line text: prefixes for the StartsWith form,
// suffixes for EndsWith, and per-token occurrence counts for Contains.
func candidatesForLine(text string, starts, ends, contains predKind, toks []tokens.Token) []linePred {
	var out []linePred
	for _, r := range tokens.SeqsStartingAt(text, 0, toks) {
		if len(r) > 0 {
			out = append(out, linePred{kind: starts, r: r})
		}
	}
	for _, r := range tokens.SeqsEndingAt(text, len(text), toks) {
		if len(r) > 0 {
			out = append(out, linePred{kind: ends, r: r})
		}
	}
	for _, t := range toks {
		r := tokens.Regex{t}
		if n := tokens.CountMatches(r, text); n > 0 {
			out = append(out, linePred{kind: contains, r: r, k: n})
		}
	}
	// Rank: standard-token and shorter regexes first; the paper relies on
	// CleanUp for output minimality, ranking only breaks ties.
	sort.SliceStable(out, func(i, j int) bool {
		si := 2*out[i].r.DynamicCount() + len(out[i].r)
		sj := 2*out[j].r.DynamicCount() + len(out[j].r)
		return si < sj
	})
	return out
}

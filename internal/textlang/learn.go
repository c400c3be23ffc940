package textlang

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"flashextract/internal/core"
	"flashextract/internal/engine"
	"flashextract/internal/tokens"
	"flashextract/internal/trace"
)

// endPairSpan closes a pair-learner span with its example and program
// counts (nil-safe, matching the other learner spans).
func endPairSpan(sp *trace.Span, examples, programs int) {
	if sp == nil {
		return
	}
	sp.SetInt("examples", int64(examples))
	sp.SetInt("programs", int64(programs))
	sp.End()
}

// attrCap bounds how many position attributes are used per side when
// crossing start and end attribute lists.
const attrCap = 12

// dynMaxLen, dynMinOccur, and dynCap parameterize dynamic-token discovery.
const (
	dynMaxLen   = 6
	dynMinOccur = 2
	dynCap      = 24
)

// lang implements engine.Language for text documents.
type lang struct{}

// learnCtx carries the per-synthesis-call token pool (standard tokens plus
// dynamic tokens promoted from the neighborhood of the examples) and the
// document whose evaluation cache serves boundary indexes to the learners.
type learnCtx struct {
	toks []tokens.Token
	doc  *Document

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

func newLearnCtx(doc *Document, boundary []Region) *learnCtx {
	var pexs []tokens.PosExample
	for _, r := range boundary {
		pexs = append(pexs,
			tokens.PosExample{S: doc.Text, K: r.Start},
			tokens.PosExample{S: doc.Text, K: r.End})
	}
	dyn := tokens.DiscoverDynamicTokens(doc.Text, pexs, dynMaxLen, dynMinOccur, dynCap)
	pool := make([]tokens.Token, 0, len(tokens.Standard)+len(dyn))
	pool = append(pool, tokens.Standard...)
	pool = append(pool, dyn...)
	return &learnCtx{toks: pool, doc: doc}
}

// index returns the boundary index of Text[lo:hi] for the context's token
// pool, clipped from the document cache's whole-document token entries.
func (c *learnCtx) index(lo, hi int) *tokens.Index {
	if c.doc == nil {
		return nil
	}
	return c.doc.cache.IndexFor(lo, hi, c.toks)
}

// SynthesizeSeqRegion learns N1 programs (Fig. 7): a Merge of pair
// sequence expressions.
func (l *lang) SynthesizeSeqRegion(ctx context.Context, exs []engine.SeqRegionExample) []engine.SeqRegionProgram {
	if len(exs) == 0 {
		return nil
	}
	var doc *Document
	var boundary []Region
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
	return engine.CoreSeqs(core.SynthesizeSeqRegionProg(ctx, n1, specs, engine.RegionConflict))
}

// SynthesizeRegion learns N2 programs: Pair(Pos(R0, p1), Pos(R0, p2)).
func (l *lang) SynthesizeRegion(ctx context.Context, exs []engine.RegionExample) []engine.RegionProgram {
	if len(exs) == 0 {
		return nil
	}
	var doc *Document
	var boundary []Region
	var coreExs []core.Example
	var ins, outs []Region
	for _, ex := range exs {
		in, ok1 := ex.Input.(Region)
		out, ok2 := ex.Output.(Region)
		if !ok1 || !ok2 || !in.Contains(out) {
			return nil
		}
		doc = in.Doc
		boundary = append(boundary, out)
		coreExs = append(coreExs, core.Example{State: core.NewState(in), Output: out})
		ins = append(ins, in)
		outs = append(outs, out)
	}
	lc := newLearnCtx(doc, boundary)
	var sExs, eExs []tokens.PosExample
	for i, in := range ins {
		ix := lc.index(in.Start, in.End)
		sExs = append(sExs, tokens.PosExample{S: in.Value(), K: outs[i].Start - in.Start, Ix: ix})
		eExs = append(eExs, tokens.PosExample{S: in.Value(), K: outs[i].End - in.Start, Ix: ix})
	}
	n2 := func(ctx context.Context, _ []core.Example) (out []core.Program) {
		ctx, sp := trace.Start(ctx, "pair")
		if sp != nil {
			sp.SetString("form", "region")
			defer func() { endPairSpan(sp, len(coreExs), len(out)) }()
		}
		p1s := capAttrs(tokens.LearnAttrsStop(sExs, lc.toks, core.StopFunc(ctx)), attrCap)
		p2s := capAttrs(tokens.LearnAttrsStop(eExs, lc.toks, core.StopFunc(ctx)), attrCap)
		bud := core.BudgetFrom(ctx)
		for _, p1 := range p1s {
			if bud.ExhaustedNow() {
				break
			}
			for _, p2 := range p2s {
				out = append(out, regionPairProg{p1: p1, p2: p2})
			}
		}
		return out
	}
	return engine.CoreRegions(core.SynthesizeRegionProg(ctx, n2, coreExs))
}

func capAttrs(as []tokens.Attr, n int) []tokens.Attr {
	if len(as) > n {
		return as[:n]
	}
	return as
}

// ---- sequence non-terminal SS and its three rules ----

// learnSS returns the learner for the pair-sequence non-terminal SS.
func (c *learnCtx) learnSS() core.SeqLearner {
	return core.UnionLearners(
		c.linesMapOp().Learn,
		c.startSeqMapOp().Learn,
		c.endSeqMapOp().Learn,
	)
}

// linesMapOp is SS ::= LinesMap(λx: Pair(Pos(x,p1), Pos(x,p2)), LS).
func (c *learnCtx) linesMapOp() core.MapOp {
	return core.MapOp{
		Name: "LinesMap",
		Var:  lambdaVar,
		F:    c.learnLinePair,
		S:    c.learnLS(),
		Decompose: func(st core.State, y []core.Value) ([]core.Value, error) {
			r0, err := inputRegion(st)
			if err != nil {
				return nil, err
			}
			out := make([]core.Value, len(y))
			for i, v := range y {
				yr, ok := v.(Region)
				if !ok {
					return nil, fmt.Errorf("textlang: LinesMap output is %T, want region", v)
				}
				line, ok := lineContaining(r0, yr.Start, yr.End)
				if !ok {
					return nil, core.ErrNoMatch
				}
				out[i] = line
			}
			return out, nil
		},
	}
}

// startSeqMapOp is SS ::= StartSeqMap(λx: Pair(x, Pos(R0[x:], p)), PS).
func (c *learnCtx) startSeqMapOp() core.MapOp {
	return core.MapOp{
		Name: "StartSeqMap",
		Var:  lambdaVar,
		F:    c.learnStartPair,
		S:    c.learnPS(),
		Decompose: func(st core.State, y []core.Value) ([]core.Value, error) {
			out := make([]core.Value, len(y))
			for i, v := range y {
				yr, ok := v.(Region)
				if !ok {
					return nil, fmt.Errorf("textlang: StartSeqMap output is %T, want region", v)
				}
				out[i] = yr.Start
			}
			return out, nil
		},
	}
}

// endSeqMapOp is SS ::= EndSeqMap(λx: Pair(Pos(R0[:x], p), x), PS).
func (c *learnCtx) endSeqMapOp() core.MapOp {
	return core.MapOp{
		Name: "EndSeqMap",
		Var:  lambdaVar,
		F:    c.learnEndPair,
		S:    c.learnPS(),
		Decompose: func(st core.State, y []core.Value) ([]core.Value, error) {
			out := make([]core.Value, len(y))
			for i, v := range y {
				yr, ok := v.(Region)
				if !ok {
					return nil, fmt.Errorf("textlang: EndSeqMap output is %T, want region", v)
				}
				out[i] = yr.End
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
		Var: lambdaVar,
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
			// The SS rules run concurrently (UnionLearners), so a second
			// identical sub-learn may still be in flight; wait for it rather
			// than duplicating its exploration.
			<-e.done
			if e.ok {
				// The replay leaves a marker span where the recomputation's
				// learner subtree would sit, so traces stay self-explanatory.
				if _, sp := trace.Start(ctx, "ls_replay"); sp != nil {
					sp.SetInt("programs", int64(len(e.ps)))
					sp.End()
				}
				return e.ps
			}
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
	linesMap := core.MapOp{
		Name: "LinesMap",
		Var:  lambdaVar,
		F:    c.learnLinePos,
		S:    c.learnLS(),
		Decompose: func(st core.State, y []core.Value) ([]core.Value, error) {
			r0, err := inputRegion(st)
			if err != nil {
				return nil, err
			}
			out := make([]core.Value, len(y))
			for i, v := range y {
				k, ok := v.(int)
				if !ok {
					return nil, fmt.Errorf("textlang: position sequence output is %T, want int", v)
				}
				line, ok := lineContaining(r0, k, k)
				if !ok {
					return nil, core.ErrNoMatch
				}
				out[i] = line
			}
			return out, nil
		},
	}
	filtered := core.FilterIntOp{S: c.learnPosSeq}
	return core.UnionLearners(filtered.Learn, linesMap.Learn)
}

// learnPosSeq learns PosSeq(R0, rr) programs from positive position
// instances.
func (c *learnCtx) learnPosSeq(ctx context.Context, exs []core.SeqExample) []core.Program {
	var spexs []tokens.SeqPosExample
	for _, ex := range exs {
		r0, err := inputRegion(ex.State)
		if err != nil {
			return nil
		}
		sp := tokens.SeqPosExample{S: r0.Value(), Ix: c.index(r0.Start, r0.End)}
		for _, v := range ex.Positive {
			k, ok := v.(int)
			if !ok || k < r0.Start || k > r0.End {
				return nil
			}
			sp.Ks = append(sp.Ks, k-r0.Start)
		}
		sort.Ints(sp.Ks)
		spexs = append(spexs, sp)
	}
	pairs := tokens.LearnRegexPairsStop(spexs, c.toks, core.StopFunc(ctx))
	out := make([]core.Program, len(pairs))
	for i, rr := range pairs {
		out[i] = posSeqProg{rr: rr}
	}
	return out
}

// ---- scalar learners for the map functions ----

// learnLinePair learns λx: Pair(Pos(x,p1), Pos(x,p2)) from examples that
// bind x to a line and output a region within that line.
func (c *learnCtx) learnLinePair(ctx context.Context, exs []core.Example) (out []core.Program) {
	ctx, sp := trace.Start(ctx, "pair")
	if sp != nil {
		sp.SetString("form", "line")
		defer func() { endPairSpan(sp, len(exs), len(out)) }()
	}
	var sExs, eExs []tokens.PosExample
	for _, ex := range exs {
		x, err := lambdaRegion(ex.State)
		if err != nil {
			return nil
		}
		y, ok := ex.Output.(Region)
		if !ok || !x.Contains(y) {
			return nil
		}
		ix := c.index(x.Start, x.End)
		sExs = append(sExs, tokens.PosExample{S: x.Value(), K: y.Start - x.Start, Ix: ix})
		eExs = append(eExs, tokens.PosExample{S: x.Value(), K: y.End - x.Start, Ix: ix})
	}
	p1s := capAttrs(tokens.LearnAttrsStop(sExs, c.toks, core.StopFunc(ctx)), attrCap)
	p2s := capAttrs(tokens.LearnAttrsStop(eExs, c.toks, core.StopFunc(ctx)), attrCap)
	for _, p1 := range p1s {
		for _, p2 := range p2s {
			out = append(out, linePairProg{p1: p1, p2: p2})
		}
	}
	return out
}

// learnLinePos learns λx: Pos(x, p) from examples that bind x to a line
// and output a position within that line.
func (c *learnCtx) learnLinePos(ctx context.Context, exs []core.Example) []core.Program {
	var pexs []tokens.PosExample
	for _, ex := range exs {
		x, err := lambdaRegion(ex.State)
		if err != nil {
			return nil
		}
		k, ok := ex.Output.(int)
		if !ok || k < x.Start || k > x.End {
			return nil
		}
		pexs = append(pexs, tokens.PosExample{S: x.Value(), K: k - x.Start, Ix: c.index(x.Start, x.End)})
	}
	attrs := capAttrs(tokens.LearnAttrsStop(pexs, c.toks, core.StopFunc(ctx)), attrCap)
	out := make([]core.Program, len(attrs))
	for i, p := range attrs {
		out[i] = linePosProg{p: p}
	}
	return out
}

// learnStartPair learns λx: Pair(x, Pos(R0[x:], p)) from examples that
// bind x to a start position and output the region starting there.
func (c *learnCtx) learnStartPair(ctx context.Context, exs []core.Example) (out []core.Program) {
	ctx, sp := trace.Start(ctx, "pair")
	if sp != nil {
		sp.SetString("form", "start")
		defer func() { endPairSpan(sp, len(exs), len(out)) }()
	}
	var pexs []tokens.PosExample
	for _, ex := range exs {
		x, err := lambdaPos(ex.State)
		if err != nil {
			return nil
		}
		r0, err := inputRegion(ex.State)
		if err != nil {
			return nil
		}
		y, ok := ex.Output.(Region)
		if !ok || y.Start != x || y.End > r0.End {
			return nil
		}
		pexs = append(pexs, tokens.PosExample{S: r0.Doc.Text[x:r0.End], K: y.End - x, Ix: c.index(x, r0.End)})
	}
	attrs := capAttrs(tokens.LearnAttrsStop(pexs, c.toks, core.StopFunc(ctx)), attrCap)
	out = make([]core.Program, len(attrs))
	for i, p := range attrs {
		out[i] = startPairProg{p: p}
	}
	return out
}

// learnEndPair learns λx: Pair(Pos(R0[:x], p), x) from examples that bind
// x to an end position and output the region ending there.
func (c *learnCtx) learnEndPair(ctx context.Context, exs []core.Example) (out []core.Program) {
	ctx, sp := trace.Start(ctx, "pair")
	if sp != nil {
		sp.SetString("form", "end")
		defer func() { endPairSpan(sp, len(exs), len(out)) }()
	}
	var pexs []tokens.PosExample
	for _, ex := range exs {
		x, err := lambdaPos(ex.State)
		if err != nil {
			return nil
		}
		r0, err := inputRegion(ex.State)
		if err != nil {
			return nil
		}
		y, ok := ex.Output.(Region)
		if !ok || y.End != x || y.Start < r0.Start {
			return nil
		}
		pexs = append(pexs, tokens.PosExample{S: r0.Doc.Text[r0.Start:x], K: y.Start - r0.Start, Ix: c.index(r0.Start, x)})
	}
	attrs := capAttrs(tokens.LearnAttrsStop(pexs, c.toks, core.StopFunc(ctx)), attrCap)
	out = make([]core.Program, len(attrs))
	for i, p := range attrs {
		out[i] = endPairProg{p: p}
	}
	return out
}

// ---- line predicate learner ----

// learnPred learns line predicates b by brute-force search over candidate
// regexes derived from the first positive line (and its neighbor lines),
// verified against all examples.
func (c *learnCtx) learnPred(ctx context.Context, exs []core.Example) []core.Program {
	if len(exs) == 0 {
		return []core.Program{linePred{kind: predTrue}}
	}
	first, err := lambdaRegion(exs[0].State)
	if err != nil {
		return nil
	}
	cands := []linePred{{kind: predTrue}}
	cands = append(cands, candidatesForLine(first.Value(), predStartsWith, predEndsWith, predContains, c.toks)...)
	if r0, err := inputRegion(exs[0].State); err == nil {
		lines := linesIn(r0)
		for i, l := range lines {
			if l != first {
				continue
			}
			if i > 0 {
				cands = append(cands, candidatesForLine(lines[i-1].Value(), predPredStartsWith, predPredEndsWith, predPredContains, c.toks)...)
			}
			if i+1 < len(lines) {
				cands = append(cands, candidatesForLine(lines[i+1].Value(), predSuccStartsWith, predSuccEndsWith, predSuccContains, c.toks)...)
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

package weblang

import (
	"context"
	"fmt"
	"sort"

	"flashextract/internal/core"
	"flashextract/internal/engine"
	"flashextract/internal/htmldom"
	"flashextract/internal/region"
	"flashextract/internal/tokens"
	"flashextract/internal/xpath"
)

// attrCap bounds per-side position attribute lists in cross products.
const attrCap = 12

// Dynamic-token discovery parameters (over the page's text content).
const (
	dynMaxLen   = 8
	dynMinOccur = 2
	dynCap      = 24
)

// lang implements engine.Language for webpages.
type lang struct{}

// webCtx carries the per-call token pool. The learners name each example
// string as a range of its document's evaluation cache, whose token
// boundaries they share.
type webCtx struct {
	toks []tokens.Token
}

func newWebCtx(doc *Document, boundary []region.Region) *webCtx {
	var pexs []tokens.PosExample
	for _, r := range boundary {
		_, lo, hi, ok := textRange(r)
		if !ok {
			continue
		}
		pexs = append(pexs,
			tokens.PosExample{S: doc.Text, K: lo},
			tokens.PosExample{S: doc.Text, K: hi})
	}
	dyn := tokens.DiscoverDynamicTokens(doc.Text, pexs, dynMaxLen, dynMinOccur, dynCap)
	pool := make([]tokens.Token, 0, len(tokens.Standard)+len(dyn))
	pool = append(pool, tokens.Standard...)
	pool = append(pool, dyn...)
	return &webCtx{toks: pool}
}

// SynthesizeSeqRegion learns N1 programs (Fig. 8): a Merge of node
// sequences (XPaths) or of position-pair sequences.
func (l *lang) SynthesizeSeqRegion(ctx context.Context, exs []engine.SeqRegionExample) []core.Program {
	if len(exs) == 0 {
		return nil
	}
	var doc *Document
	var boundary []region.Region
	specs := make([]core.SeqSpec, 0, len(exs))
	for _, ex := range exs {
		in, ok := ex.Input.(NodeRegion)
		if !ok {
			return nil
		}
		doc = in.Doc
		spec := core.SeqSpec{State: core.NewState(in).WithExecMemo()}
		for _, p := range ex.Positive {
			boundary = append(boundary, p)
			spec.Positive = append(spec.Positive, core.Value(p))
		}
		for _, n := range ex.Negative {
			spec.Negative = append(spec.Negative, core.Value(n))
		}
		specs = append(specs, spec)
	}
	lc := newWebCtx(doc, boundary)
	inner := core.PreferNonOverlapping(
		core.UnionLearners(learnNS, lc.learnSS()),
		engine.RegionConflict,
	)
	n1 := core.PreferNonOverlapping(
		core.MergeOp{A: inner, Less: engine.RegionLess}.Learn,
		engine.RegionConflict,
	)
	return core.SynthesizeSeqRegionProg(ctx, n1, specs, engine.RegionConflict)
}

// SynthesizeRegion learns N2 programs: an XPath when the output is a node,
// or a position pair within the input's text content when the output is a
// span.
func (l *lang) SynthesizeRegion(ctx context.Context, exs []engine.RegionExample) []core.Program {
	if len(exs) == 0 {
		return nil
	}
	if _, isNode := exs[0].Output.(NodeRegion); isNode {
		return synthesizeNodeRegion(ctx, exs)
	}
	return synthesizeSpanRegion(ctx, exs)
}

func synthesizeNodeRegion(ctx context.Context, exs []engine.RegionExample) []core.Program {
	var coreExs []core.Example
	var paths []*xpath.Path
	for i, ex := range exs {
		in, ok1 := ex.Input.(NodeRegion)
		out, ok2 := ex.Output.(NodeRegion)
		if !ok1 || !ok2 || !in.Contains(out) {
			return nil
		}
		coreExs = append(coreExs, core.Example{State: core.NewState(in), Output: out})
		if i == 0 {
			paths = xpath.Learn(in.Node, []*htmldom.Node{out.Node})
		}
	}
	var cands []core.Program
	for _, p := range paths {
		cands = append(cands, xpathRegionProg{path: p})
	}
	return core.SynthesizeRegionProg(ctx, func(context.Context, []core.Example) []core.Program { return cands }, coreExs)
}

func synthesizeSpanRegion(ctx context.Context, exs []engine.RegionExample) []core.Program {
	var doc *Document
	var boundary []region.Region
	var coreExs []core.Example
	var ranges [][2]int
	var outs []SpanRegion
	for _, ex := range exs {
		out, ok := ex.Output.(SpanRegion)
		if !ok || !ex.Input.Contains(out) {
			return nil
		}
		d, lo, hi, ok := textRange(ex.Input)
		if !ok {
			return nil
		}
		doc = d
		boundary = append(boundary, out)
		coreExs = append(coreExs, core.Example{State: core.NewState(ex.Input), Output: out})
		ranges = append(ranges, [2]int{lo, hi})
		outs = append(outs, out)
	}
	lc := newWebCtx(doc, boundary)
	var sExs, eExs []tokens.PosExample
	for i, rg := range ranges {
		lo, hi := rg[0], rg[1]
		sExs = append(sExs, tokens.PosExample{S: doc.Text[lo:hi], K: outs[i].Start - lo, C: doc.cache, Lo: lo})
		eExs = append(eExs, tokens.PosExample{S: doc.Text[lo:hi], K: outs[i].End - lo, C: doc.cache, Lo: lo})
	}
	n2 := func(ctx context.Context, _ []core.Example) []core.Program {
		p1s := capAttrs(tokens.LearnAttrsStop(sExs, lc.toks, core.StopFunc(ctx)), attrCap)
		p2s := capAttrs(tokens.LearnAttrsStop(eExs, lc.toks, core.StopFunc(ctx)), attrCap)
		bud := core.BudgetFrom(ctx)
		var out []core.Program
		for _, p1 := range p1s {
			if bud.ExhaustedNow() {
				break
			}
			for _, p2 := range p2s {
				out = append(out, spanPairProg{p1: p1, p2: p2})
			}
		}
		return out
	}
	return core.SynthesizeRegionProg(ctx, n2, coreExs)
}

func capAttrs(as []tokens.Attr, n int) []tokens.Attr {
	if len(as) > n {
		return as[:n]
	}
	return as
}

// ---- NS: node sequences via XPaths ----

// learnNS learns XPaths programs: candidates are generalized from the
// first example and verified against the rest.
func learnNS(_ context.Context, exs []core.SeqExample) []core.Program {
	var first []*htmldom.Node
	var firstRoot *htmldom.Node
	for _, ex := range exs {
		r0, ok := ex.State.Input().(NodeRegion)
		if !ok {
			return nil
		}
		var nodes []*htmldom.Node
		for _, v := range ex.Positive {
			nr, ok := v.(NodeRegion)
			if !ok {
				return nil
			}
			nodes = append(nodes, nr.Node)
		}
		if first == nil && len(nodes) > 0 {
			first, firstRoot = nodes, r0.Node
		}
	}
	if first == nil {
		return nil
	}
	paths := xpath.Learn(firstRoot, first)
	var out []core.Program
	for _, p := range paths {
		prog := xpathsProg{path: p}
		if core.ConsistentSeq(prog, exs) {
			out = append(out, prog)
		}
	}
	return out
}

// learnES is ES ::= FilterInt(init, iter, XPaths).
func learnES(ctx context.Context, exs []core.SeqExample) []core.Program {
	return core.FilterIntOp{S: learnNS}.Learn(ctx, exs)
}

// ---- SS: position-pair sequences ----

func (c *webCtx) learnSS() core.SeqLearner {
	seqPairMap := core.MapOp{
		Name: "SeqPairMap",
		Var:  lambdaVar,
		F:    c.learnNodeSpanPair,
		S:    learnES,
		Decompose: func(st core.State, y []core.Value) ([]core.Value, error) {
			r0, err := inputNode(st)
			if err != nil {
				return nil, err
			}
			out := make([]core.Value, len(y))
			for i, v := range y {
				sp, ok := v.(SpanRegion)
				if !ok {
					return nil, fmt.Errorf("weblang: SeqPairMap output is %T, want span", v)
				}
				node := deepestNodeContaining(sp.Doc, sp.Start, sp.End)
				if !r0.Node.IsAncestorOf(node) {
					return nil, core.ErrNoMatch
				}
				out[i] = NodeRegion{Doc: sp.Doc, Node: node}
			}
			return out, nil
		},
	}
	startSeqMap := core.MapOp{
		Name: "StartSeqMap",
		Var:  lambdaVar,
		F:    c.learnStartPair,
		S:    c.learnPS(),
		Decompose: func(st core.State, y []core.Value) ([]core.Value, error) {
			out := make([]core.Value, len(y))
			for i, v := range y {
				sp, ok := v.(SpanRegion)
				if !ok {
					return nil, fmt.Errorf("weblang: StartSeqMap output is %T, want span", v)
				}
				out[i] = sp.Start
			}
			return out, nil
		},
	}
	endSeqMap := core.MapOp{
		Name: "EndSeqMap",
		Var:  lambdaVar,
		F:    c.learnEndPair,
		S:    c.learnPS(),
		Decompose: func(st core.State, y []core.Value) ([]core.Value, error) {
			out := make([]core.Value, len(y))
			for i, v := range y {
				sp, ok := v.(SpanRegion)
				if !ok {
					return nil, fmt.Errorf("weblang: EndSeqMap output is %T, want span", v)
				}
				out[i] = sp.End
			}
			return out, nil
		},
	}
	return core.UnionLearners(seqPairMap.Learn, startSeqMap.Learn, endSeqMap.Learn)
}

// learnPS is PS ::= FilterInt(init, iter, PosSeq(R0, rr)).
func (c *webCtx) learnPS() core.SeqLearner {
	return core.FilterIntOp{S: c.learnPosSeq}.Learn
}

func (c *webCtx) learnPosSeq(ctx context.Context, exs []core.SeqExample) []core.Program {
	var spexs []tokens.SeqPosExample
	for _, ex := range exs {
		doc, lo, hi, err := inputTextRange(ex.State)
		if err != nil {
			return nil
		}
		sp := tokens.SeqPosExample{S: doc.Text[lo:hi], C: doc.cache, Lo: lo}
		for _, v := range ex.Positive {
			k, ok := v.(int)
			if !ok || k < lo || k > hi {
				return nil
			}
			sp.Ks = append(sp.Ks, k-lo)
		}
		sort.Ints(sp.Ks)
		spexs = append(spexs, sp)
	}
	pairs := tokens.LearnRegexPairsStop(spexs, c.toks, core.StopFunc(ctx))
	out := make([]core.Program, len(pairs))
	for i, rr := range pairs {
		out[i] = &posSeqProg{rr: rr}
	}
	return out
}

// learnNodeSpanPair learns λx: Pair(Pos(x.Val, p1), Pos(x.Val, p2)) from
// examples binding x to a node and outputting a span within its text.
func (c *webCtx) learnNodeSpanPair(ctx context.Context, exs []core.Example) []core.Program {
	var sExs, eExs []tokens.PosExample
	for _, ex := range exs {
		v, _ := ex.State.Lookup(lambdaVar)
		x, ok := v.(NodeRegion)
		if !ok {
			return nil
		}
		y, ok := ex.Output.(SpanRegion)
		if !ok || !x.Contains(y) {
			return nil
		}
		lo, hi := x.Node.TextStart, x.Node.TextEnd
		sExs = append(sExs, tokens.PosExample{S: x.Doc.Text[lo:hi], K: y.Start - lo, C: x.Doc.cache, Lo: lo})
		eExs = append(eExs, tokens.PosExample{S: x.Doc.Text[lo:hi], K: y.End - lo, C: x.Doc.cache, Lo: lo})
	}
	p1s := capAttrs(tokens.LearnAttrsStop(sExs, c.toks, core.StopFunc(ctx)), attrCap)
	p2s := capAttrs(tokens.LearnAttrsStop(eExs, c.toks, core.StopFunc(ctx)), attrCap)
	var out []core.Program
	for _, p1 := range p1s {
		for _, p2 := range p2s {
			out = append(out, nodeSpanPairProg{p1: p1, p2: p2})
		}
	}
	return out
}

// learnStartPair learns λx: Pair(x, Pos(R0[x:], p)).
func (c *webCtx) learnStartPair(ctx context.Context, exs []core.Example) []core.Program {
	var pexs []tokens.PosExample
	for _, ex := range exs {
		doc, _, hi, err := inputTextRange(ex.State)
		if err != nil {
			return nil
		}
		v, _ := ex.State.Lookup(lambdaVar)
		x, ok := v.(int)
		if !ok {
			return nil
		}
		y, ok := ex.Output.(SpanRegion)
		if !ok || y.Start != x || y.End > hi {
			return nil
		}
		pexs = append(pexs, tokens.PosExample{S: doc.Text[x:hi], K: y.End - x, C: doc.cache, Lo: x})
	}
	attrs := capAttrs(tokens.LearnAttrsStop(pexs, c.toks, core.StopFunc(ctx)), attrCap)
	out := make([]core.Program, len(attrs))
	for i, p := range attrs {
		out[i] = startPairProg{p: p}
	}
	return out
}

// learnEndPair learns λx: Pair(Pos(R0[:x], p), x).
func (c *webCtx) learnEndPair(ctx context.Context, exs []core.Example) []core.Program {
	var pexs []tokens.PosExample
	for _, ex := range exs {
		doc, lo, _, err := inputTextRange(ex.State)
		if err != nil {
			return nil
		}
		v, _ := ex.State.Lookup(lambdaVar)
		x, ok := v.(int)
		if !ok {
			return nil
		}
		y, ok := ex.Output.(SpanRegion)
		if !ok || y.End != x || y.Start < lo {
			return nil
		}
		pexs = append(pexs, tokens.PosExample{S: doc.Text[lo:x], K: y.Start - lo, C: doc.cache, Lo: lo})
	}
	attrs := capAttrs(tokens.LearnAttrsStop(pexs, c.toks, core.StopFunc(ctx)), attrCap)
	out := make([]core.Program, len(attrs))
	for i, p := range attrs {
		out[i] = endPairProg{p: p}
	}
	return out
}

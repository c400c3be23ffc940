package weblang

import (
	"context"
	"fmt"

	"flashextract/internal/core"
	"flashextract/internal/engine"
	"flashextract/internal/htmldom"
	"flashextract/internal/poslang"
	"flashextract/internal/region"
	"flashextract/internal/xpath"
)

// lang implements engine.Language for webpages.
type lang struct{}

// SynthesizeSeqRegion learns N1 programs (Fig. 8): a Merge of node
// sequences (XPaths) or of position-pair sequences.
func (lang) SynthesizeSeqRegion(ctx context.Context, exs []engine.SeqRegionExample) []core.Program {
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
	inner := core.PreferNonOverlapping(
		core.UnionLearners(learnNS, learnSS(poslang.Web.NewLearner(doc.cache, boundary))),
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
func (lang) SynthesizeRegion(ctx context.Context, exs []engine.RegionExample) []core.Program {
	if len(exs) == 0 {
		return nil
	}
	if _, isNode := exs[0].Output.(NodeRegion); isNode {
		return synthesizeNodeRegion(ctx, exs)
	}
	return poslang.Web.SynthesizeRegion(ctx, exs)
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

// learnSS is SS ::= SeqPairMap(λx: Pair(Pos(x.Val, p1), Pos(x.Val, p2)), ES)
// | StartSeqMap(…, PS) | EndSeqMap(…, PS), with the position sublanguage's
// learner l.
func learnSS(l *poslang.Learner) core.SeqLearner {
	seqPairMap := core.MapOp{
		Name: "SeqPairMap",
		Var:  poslang.X,
		F:    l.XPair,
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
	return core.UnionLearners(seqPairMap.Learn, l.StartSeqMap(l.PS()).Learn, l.EndSeqMap(l.PS()).Learn)
}

package weblang

import (
	"fmt"

	"flashextract/internal/core"
	"flashextract/internal/tokens"
	"flashextract/internal/xpath"
)

// lambdaVar is the λ-bound variable name used by the Lweb map operators.
const lambdaVar = "x"

func inputNode(st core.State) (NodeRegion, error) {
	r, ok := st.Input().(NodeRegion)
	if !ok {
		return NodeRegion{}, fmt.Errorf("weblang: input is %T, want an HTML node region", st.Input())
	}
	return r, nil
}

// inputTextRange resolves the global text slice of the input region (node
// or span).
func inputTextRange(st core.State) (doc *Document, lo, hi int, err error) {
	switch v := st.Input().(type) {
	case NodeRegion:
		return v.Doc, v.Node.TextStart, v.Node.TextEnd, nil
	case SpanRegion:
		return v.Doc, v.Start, v.End, nil
	default:
		return nil, 0, 0, fmt.Errorf("weblang: input is %T, want a web region", st.Input())
	}
}

// evalPos evaluates a position attribute over Text[lo:hi] through the
// document's evaluation cache.
func evalPos(d *Document, lo, hi int, a tokens.Attr) (int, error) {
	return d.cache.EvalAttr(lo, hi, a)
}

// positionsIn returns the position sequence of rr within Text[lo:hi]
// through the document's evaluation cache.
func positionsIn(d *Document, lo, hi int, rr tokens.RegexPair) []int {
	return d.cache.Positions(lo, hi, rr)
}

// xpathsProg is the NS expression: an XPath selecting a node sequence
// under the input node.
type xpathsProg struct {
	path *xpath.Path
}

func (p xpathsProg) Exec(st core.State) (core.Value, error) {
	r0, err := inputNode(st)
	if err != nil {
		return nil, err
	}
	nodes := p.path.Select(r0.Node)
	out := make([]core.Value, len(nodes))
	for i, n := range nodes {
		out[i] = NodeRegion{Doc: r0.Doc, Node: n}
	}
	return out, nil
}

func (p xpathsProg) String() string { return fmt.Sprintf("XPaths(%s)", p.path) }

// Cost defers to the path's ranking score.
func (p xpathsProg) Cost() int { return p.path.Cost() }

// xpathRegionProg is the N2 XPath expression: it extracts the first node
// selected by the path under the input node.
type xpathRegionProg struct {
	path *xpath.Path
}

func (p xpathRegionProg) Exec(st core.State) (core.Value, error) {
	r0, err := inputNode(st)
	if err != nil {
		return nil, err
	}
	nodes := p.path.Select(r0.Node)
	if len(nodes) == 0 {
		return nil, core.ErrNoMatch
	}
	return NodeRegion{Doc: r0.Doc, Node: nodes[0]}, nil
}

func (p xpathRegionProg) String() string { return fmt.Sprintf("XPath(%s)", p.path) }

// Cost defers to the path's ranking score.
func (p xpathRegionProg) Cost() int { return p.path.Cost() }

// nodeSpanPairProg is λx: Pair(Pos(x.Val, p1), Pos(x.Val, p2)) — the map
// function of SeqPairMap, producing a span within the text of node x.
type nodeSpanPairProg struct {
	p1, p2 tokens.Attr
}

func (p nodeSpanPairProg) Exec(st core.State) (core.Value, error) {
	v, ok := st.Lookup(lambdaVar)
	if !ok {
		return nil, fmt.Errorf("weblang: free variable %s is unbound", lambdaVar)
	}
	x, ok := v.(NodeRegion)
	if !ok {
		return nil, fmt.Errorf("weblang: %s is %T, want a node region", lambdaVar, v)
	}
	a, err := evalPos(x.Doc, x.Node.TextStart, x.Node.TextEnd, p.p1)
	if err != nil {
		return nil, err
	}
	b, err := evalPos(x.Doc, x.Node.TextStart, x.Node.TextEnd, p.p2)
	if err != nil {
		return nil, err
	}
	if a > b {
		return nil, core.ErrNoMatch
	}
	return SpanRegion{Doc: x.Doc, Start: x.Node.TextStart + a, End: x.Node.TextStart + b}, nil
}

func (p nodeSpanPairProg) String() string {
	return fmt.Sprintf("Pair(Pos(x.Val, %s), Pos(x.Val, %s))", p.p1, p.p2)
}

// Cost is the cost of the two position attributes.
func (p nodeSpanPairProg) Cost() int { return p.p1.Cost() + p.p2.Cost() }

// posSeqProg is PosSeq(R0, rr) over the input node's text content. Like
// every other sequence leaf it reads R0 as a node, so a sequence program
// fails on a span input.
type posSeqProg struct {
	rr tokens.RegexPair
}

func (p posSeqProg) Exec(st core.State) (core.Value, error) {
	r0, err := inputNode(st)
	if err != nil {
		return nil, err
	}
	lo := r0.Node.TextStart
	ps := positionsIn(r0.Doc, lo, r0.Node.TextEnd, p.rr)
	out := make([]core.Value, len(ps))
	for i, k := range ps {
		out[i] = lo + k
	}
	return out, nil
}

func (p posSeqProg) String() string { return fmt.Sprintf("PosSeq(R0, %s)", p.rr) }

// Cost defers to the regex pair.
func (p posSeqProg) Cost() int { return p.rr.Cost() }

// startPairProg is λx: Pair(x, Pos(R0[x:], p)).
type startPairProg struct {
	p tokens.Attr
}

func (p startPairProg) Exec(st core.State) (core.Value, error) {
	doc, lo, hi, err := inputTextRange(st)
	if err != nil {
		return nil, err
	}
	v, _ := st.Lookup(lambdaVar)
	x, ok := v.(int)
	if !ok {
		return nil, fmt.Errorf("weblang: %s is %T, want a position", lambdaVar, v)
	}
	if x < lo || x > hi {
		return nil, core.ErrNoMatch
	}
	e, err := evalPos(doc, x, hi, p.p)
	if err != nil {
		return nil, err
	}
	return SpanRegion{Doc: doc, Start: x, End: x + e}, nil
}

func (p startPairProg) String() string { return fmt.Sprintf("Pair(x, Pos(R0[x:], %s))", p.p) }

// Cost carries a small bias against raw position pairing.
func (p startPairProg) Cost() int { return p.p.Cost() + 1 }

// endPairProg is λx: Pair(Pos(R0[:x], p), x).
type endPairProg struct {
	p tokens.Attr
}

func (p endPairProg) Exec(st core.State) (core.Value, error) {
	doc, lo, hi, err := inputTextRange(st)
	if err != nil {
		return nil, err
	}
	v, _ := st.Lookup(lambdaVar)
	x, ok := v.(int)
	if !ok {
		return nil, fmt.Errorf("weblang: %s is %T, want a position", lambdaVar, v)
	}
	if x < lo || x > hi {
		return nil, core.ErrNoMatch
	}
	s, err := evalPos(doc, lo, x, p.p)
	if err != nil {
		return nil, err
	}
	return SpanRegion{Doc: doc, Start: lo + s, End: x}, nil
}

func (p endPairProg) String() string { return fmt.Sprintf("Pair(Pos(R0[:x], %s), x)", p.p) }

// Cost carries the same bias as startPairProg.
func (p endPairProg) Cost() int { return p.p.Cost() + 1 }

// spanPairProg is the N2 expression Pair(Pos(R0, p1), Pos(R0, p2)): a span
// within the input region's text content.
type spanPairProg struct {
	p1, p2 tokens.Attr
}

func (p spanPairProg) Exec(st core.State) (core.Value, error) {
	doc, lo, hi, err := inputTextRange(st)
	if err != nil {
		return nil, err
	}
	a, err := evalPos(doc, lo, hi, p.p1)
	if err != nil {
		return nil, err
	}
	b, err := evalPos(doc, lo, hi, p.p2)
	if err != nil {
		return nil, err
	}
	if a > b {
		return nil, core.ErrNoMatch
	}
	return SpanRegion{Doc: doc, Start: lo + a, End: lo + b}, nil
}

func (p spanPairProg) String() string {
	return fmt.Sprintf("Pair(Pos(R0, %s), Pos(R0, %s))", p.p1, p.p2)
}

// Cost is the cost of the two position attributes.
func (p spanPairProg) Cost() int { return p.p1.Cost() + p.p2.Cost() }

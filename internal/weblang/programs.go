package weblang

import (
	"fmt"

	"flashextract/internal/core"
	"flashextract/internal/poslang"
	"flashextract/internal/tokens"
	"flashextract/internal/xpath"
)

// lambdaVar is the λ-bound variable of the Lweb map operators, the one the
// position sublanguage's bodies read.
const lambdaVar = poslang.X

func inputNode(st core.State) (NodeRegion, error) {
	r, ok := st.Input().(NodeRegion)
	if !ok {
		return NodeRegion{}, fmt.Errorf("weblang: input is %T, want an HTML node region", st.Input())
	}
	return r, nil
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
	a, err := x.Doc.cache.EvalAttr(x.Node.TextStart, x.Node.TextEnd, p.p1)
	if err != nil {
		return nil, err
	}
	b, err := x.Doc.cache.EvalAttr(x.Node.TextStart, x.Node.TextEnd, p.p2)
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

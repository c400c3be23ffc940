package weblang

import (
	"fmt"

	"flashextract/internal/core"
	"flashextract/internal/xpath"
)

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

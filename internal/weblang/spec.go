package weblang

import (
	"fmt"

	"flashextract/internal/core"
	"flashextract/internal/tokens"
	"flashextract/internal/xpath"
)

// This file implements program serialization for Lweb (see core.Encode).

// EncodeProgram serializes an XPaths node-sequence expression.
func (p xpathsProg) EncodeProgram() (core.ProgramSpec, error) {
	return core.ProgramSpec{Op: "web.xpaths", Attrs: map[string]string{"path": p.path.String()}}, nil
}

// EncodeProgram serializes an N2 XPath expression.
func (p xpathRegionProg) EncodeProgram() (core.ProgramSpec, error) {
	return core.ProgramSpec{Op: "web.xpath", Attrs: map[string]string{"path": p.path.String()}}, nil
}

// EncodeProgram serializes the SeqPairMap function.
func (p nodeSpanPairProg) EncodeProgram() (core.ProgramSpec, error) {
	return webAttrPairSpec("web.nodeSpanPair", p.p1, p.p2)
}

// EncodeProgram serializes PosSeq(R0, rr).
func (p posSeqProg) EncodeProgram() (core.ProgramSpec, error) {
	rr, err := tokens.MarshalRegexPair(p.rr)
	if err != nil {
		return core.ProgramSpec{}, err
	}
	return core.ProgramSpec{Op: "web.posSeq", Attrs: map[string]string{"rr": rr}}, nil
}

// EncodeProgram serializes the StartSeqMap function.
func (p startPairProg) EncodeProgram() (core.ProgramSpec, error) {
	return webAttrSpec("web.startPair", p.p)
}

// EncodeProgram serializes the EndSeqMap function.
func (p endPairProg) EncodeProgram() (core.ProgramSpec, error) {
	return webAttrSpec("web.endPair", p.p)
}

// EncodeProgram serializes the N2 span pair expression.
func (p spanPairProg) EncodeProgram() (core.ProgramSpec, error) {
	return webAttrPairSpec("web.spanPair", p.p1, p.p2)
}

func webAttrSpec(op string, p tokens.Attr) (core.ProgramSpec, error) {
	a, err := tokens.MarshalAttr(p)
	if err != nil {
		return core.ProgramSpec{}, err
	}
	return core.ProgramSpec{Op: op, Attrs: map[string]string{"p": a}}, nil
}

func webAttrPairSpec(op string, p1, p2 tokens.Attr) (core.ProgramSpec, error) {
	a1, err := tokens.MarshalAttr(p1)
	if err != nil {
		return core.ProgramSpec{}, err
	}
	a2, err := tokens.MarshalAttr(p2)
	if err != nil {
		return core.ProgramSpec{}, err
	}
	return core.ProgramSpec{Op: op, Attrs: map[string]string{"p1": a1, "p2": a2}}, nil
}

// DecodeLeaf implements engine.ProgramCodec: it reconstructs Lweb leaf
// programs.
func (*lang) DecodeLeaf(spec core.ProgramSpec) (core.Program, error) {
	switch spec.Op {
	case "web.xpaths", "web.xpath":
		path, err := xpath.Parse(spec.Attrs["path"])
		if err != nil {
			return nil, err
		}
		if spec.Op == "web.xpaths" {
			return xpathsProg{path: path}, nil
		}
		return xpathRegionProg{path: path}, nil
	case "web.posSeq":
		rr, err := tokens.UnmarshalRegexPair(spec.Attrs["rr"])
		if err != nil {
			return nil, err
		}
		return posSeqProg{rr: rr}, nil
	case "web.startPair", "web.endPair":
		p, err := tokens.UnmarshalAttr(spec.Attrs["p"])
		if err != nil {
			return nil, err
		}
		if spec.Op == "web.startPair" {
			return startPairProg{p: p}, nil
		}
		return endPairProg{p: p}, nil
	case "web.nodeSpanPair", "web.spanPair":
		p1, err := tokens.UnmarshalAttr(spec.Attrs["p1"])
		if err != nil {
			return nil, err
		}
		p2, err := tokens.UnmarshalAttr(spec.Attrs["p2"])
		if err != nil {
			return nil, err
		}
		if spec.Op == "web.nodeSpanPair" {
			return nodeSpanPairProg{p1: p1, p2: p2}, nil
		}
		return spanPairProg{p1: p1, p2: p2}, nil
	default:
		return nil, fmt.Errorf("weblang: unknown leaf operator %q", spec.Op)
	}
}

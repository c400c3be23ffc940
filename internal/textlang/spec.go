package textlang

import (
	"fmt"
	"strconv"

	"flashextract/internal/core"
	"flashextract/internal/tokens"
)

// This file implements program serialization for Ltext (see core.Encode):
// learned extraction programs become portable JSON artifacts that can be
// re-loaded and run on other documents without re-learning.

// EncodeProgram serializes the fixed split expression.
func (splitLinesProg) EncodeProgram() (core.ProgramSpec, error) {
	return core.ProgramSpec{Op: "text.split"}, nil
}

// EncodeProgram serializes PosSeq(R0, rr).
func (p posSeqProg) EncodeProgram() (core.ProgramSpec, error) {
	rr, err := tokens.MarshalRegexPair(p.rr)
	if err != nil {
		return core.ProgramSpec{}, err
	}
	return core.ProgramSpec{Op: "text.posSeq", Attrs: map[string]string{"rr": rr}}, nil
}

func attrPairSpec(op string, p1, p2 tokens.Attr) (core.ProgramSpec, error) {
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

func attrSpec(op string, p tokens.Attr) (core.ProgramSpec, error) {
	a, err := tokens.MarshalAttr(p)
	if err != nil {
		return core.ProgramSpec{}, err
	}
	return core.ProgramSpec{Op: op, Attrs: map[string]string{"p": a}}, nil
}

// EncodeProgram serializes the LinesMap pair function.
func (p linePairProg) EncodeProgram() (core.ProgramSpec, error) {
	return attrPairSpec("text.linePair", p.p1, p.p2)
}

// EncodeProgram serializes the LinesMap position function.
func (p linePosProg) EncodeProgram() (core.ProgramSpec, error) {
	return attrSpec("text.linePos", p.p)
}

// EncodeProgram serializes the StartSeqMap pair function.
func (p startPairProg) EncodeProgram() (core.ProgramSpec, error) {
	return attrSpec("text.startPair", p.p)
}

// EncodeProgram serializes the EndSeqMap pair function.
func (p endPairProg) EncodeProgram() (core.ProgramSpec, error) {
	return attrSpec("text.endPair", p.p)
}

// EncodeProgram serializes the N2 region pair.
func (p regionPairProg) EncodeProgram() (core.ProgramSpec, error) {
	return attrPairSpec("text.regionPair", p.p1, p.p2)
}

// EncodeProgram serializes a line predicate.
func (p linePred) EncodeProgram() (core.ProgramSpec, error) {
	var rr string
	var err error
	if p.kind != predTrue {
		rr, err = tokens.MarshalRegexPair(tokens.RegexPair{Left: p.r})
		if err != nil {
			return core.ProgramSpec{}, err
		}
	}
	return core.ProgramSpec{Op: "text.pred", Attrs: map[string]string{
		"kind": strconv.Itoa(int(p.kind)),
		"r":    rr,
		"k":    strconv.Itoa(p.k),
	}}, nil
}

// DecodeLeaf implements engine.ProgramCodec: it reconstructs Ltext leaf
// programs.
func (*lang) DecodeLeaf(spec core.ProgramSpec) (core.Program, error) {
	switch spec.Op {
	case "text.split":
		return splitLines, nil
	case "text.posSeq":
		rr, err := tokens.UnmarshalRegexPair(spec.Attrs["rr"])
		if err != nil {
			return nil, err
		}
		return posSeqProg{rr: rr}, nil
	case "text.linePair", "text.regionPair":
		p1, err := tokens.UnmarshalAttr(spec.Attrs["p1"])
		if err != nil {
			return nil, err
		}
		p2, err := tokens.UnmarshalAttr(spec.Attrs["p2"])
		if err != nil {
			return nil, err
		}
		if spec.Op == "text.linePair" {
			return linePairProg{p1: p1, p2: p2}, nil
		}
		return regionPairProg{p1: p1, p2: p2}, nil
	case "text.linePos", "text.startPair", "text.endPair":
		p, err := tokens.UnmarshalAttr(spec.Attrs["p"])
		if err != nil {
			return nil, err
		}
		switch spec.Op {
		case "text.linePos":
			return linePosProg{p: p}, nil
		case "text.startPair":
			return startPairProg{p: p}, nil
		default:
			return endPairProg{p: p}, nil
		}
	case "text.pred":
		kind, err := strconv.Atoi(spec.Attrs["kind"])
		if err != nil {
			return nil, fmt.Errorf("textlang: bad predicate kind %q", spec.Attrs["kind"])
		}
		p := linePred{kind: predKind(kind)}
		if p.kind != predTrue {
			rr, err := tokens.UnmarshalRegexPair(spec.Attrs["r"])
			if err != nil {
				return nil, err
			}
			p.r = rr.Left
			if p.k, err = strconv.Atoi(spec.Attrs["k"]); err != nil {
				return nil, fmt.Errorf("textlang: bad predicate count %q", spec.Attrs["k"])
			}
		}
		return p, nil
	default:
		return nil, fmt.Errorf("textlang: unknown leaf operator %q", spec.Op)
	}
}

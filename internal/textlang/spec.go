package textlang

import (
	"fmt"
	"strconv"

	"flashextract/internal/core"
	"flashextract/internal/poslang"
	"flashextract/internal/tokens"
)

// This file implements program serialization for Ltext (see core.Encode):
// learned extraction programs become portable JSON artifacts that can be
// re-loaded and run on other documents without re-learning.

// EncodeProgram serializes the fixed split expression.
func (splitLinesProg) EncodeProgram() (core.ProgramSpec, error) {
	return core.ProgramSpec{Op: "text.split"}, nil
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
func (lang) DecodeLeaf(spec core.ProgramSpec) (core.Program, error) {
	if p, ok, err := poslang.Text.Decode(spec); ok {
		return p, err
	}
	switch spec.Op {
	case "text.split":
		return splitLines, nil
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

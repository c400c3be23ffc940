package poslang

import (
	"flashextract/internal/core"
	"flashextract/internal/tokens"
)

// This file implements program serialization for the sublanguage (see
// core.Encode), under the dialect's codec names.

// EncodeProgram serializes PosSeq(R0, rr).
func (p *posSeqProg) EncodeProgram() (core.ProgramSpec, error) {
	rr, err := tokens.MarshalRegexPair(p.rr)
	if err != nil {
		return core.ProgramSpec{}, err
	}
	return core.ProgramSpec{Op: p.d.op("posSeq"), Attrs: map[string]string{"rr": rr}}, nil
}

// EncodeProgram serializes the StartSeqMap or EndSeqMap pair function.
func (p seqPairProg) EncodeProgram() (core.ProgramSpec, error) {
	if p.end {
		return AttrSpec(p.d.op("endPair"), p.p)
	}
	return AttrSpec(p.d.op("startPair"), p.p)
}

// EncodeProgram serializes the N2 region pair.
func (p regionPairProg) EncodeProgram() (core.ProgramSpec, error) {
	return AttrPairSpec(p.d.op("regionPair"), p.p1, p.p2)
}

// AttrSpec is the spec of the leaf op with the position attribute p.
func AttrSpec(op string, p tokens.Attr) (core.ProgramSpec, error) {
	a, err := tokens.MarshalAttr(p)
	if err != nil {
		return core.ProgramSpec{}, err
	}
	return core.ProgramSpec{Op: op, Attrs: map[string]string{"p": a}}, nil
}

// AttrPairSpec is the spec of the leaf op with the position attributes p1
// and p2.
func AttrPairSpec(op string, p1, p2 tokens.Attr) (core.ProgramSpec, error) {
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

// SpecAttrs decodes the position attributes a spec holds under keys, in
// order.
func SpecAttrs(spec core.ProgramSpec, keys ...string) ([]tokens.Attr, error) {
	out := make([]tokens.Attr, len(keys))
	for i, k := range keys {
		a, err := tokens.UnmarshalAttr(spec.Attrs[k])
		if err != nil {
			return nil, err
		}
		out[i] = a
	}
	return out, nil
}

// Decode reconstructs the dialect's program of spec; ok is false when
// spec's op is none of the sublanguage's, for the DSL to decode.
func (d Dialect) Decode(spec core.ProgramSpec) (p core.Program, ok bool, err error) {
	switch spec.Op {
	case d.op("posSeq"):
		rr, err := tokens.UnmarshalRegexPair(spec.Attrs["rr"])
		if err != nil {
			return nil, true, err
		}
		return d.PosSeq(rr), true, nil
	case d.op("startPair"), d.op("endPair"):
		as, err := SpecAttrs(spec, "p")
		if err != nil {
			return nil, true, err
		}
		return seqPairProg{d: d, p: as[0], end: spec.Op == d.op("endPair")}, true, nil
	case d.op("regionPair"):
		as, err := SpecAttrs(spec, "p1", "p2")
		if err != nil {
			return nil, true, err
		}
		return d.RegionPair(as[0], as[1]), true, nil
	}
	return nil, false, nil
}

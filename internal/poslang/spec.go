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
		return attrSpec(p.d.op("endPair"), []string{"p"}, p.p)
	}
	return attrSpec(p.d.op("startPair"), []string{"p"}, p.p)
}

// EncodeProgram serializes the N2 region pair or the pair over x.
func (p pairProg) EncodeProgram() (core.ProgramSpec, error) {
	op := p.d.op("regionPair")
	if p.x {
		op = p.d.op("linePair")
	}
	return attrSpec(op, []string{"p1", "p2"}, p.p1, p.p2)
}

// EncodeProgram serializes the position over x.
func (p posProg) EncodeProgram() (core.ProgramSpec, error) {
	return attrSpec(p.d.op("linePos"), []string{"p"}, p.p)
}

// attrSpec is the spec of the leaf op with the position attributes as
// under keys, in order.
func attrSpec(op string, keys []string, as ...tokens.Attr) (core.ProgramSpec, error) {
	spec := core.ProgramSpec{Op: op, Attrs: make(map[string]string, len(as))}
	for i, a := range as {
		m, err := tokens.MarshalAttr(a)
		if err != nil {
			return core.ProgramSpec{}, err
		}
		spec.Attrs[keys[i]] = m
	}
	return spec, nil
}

// specAttrs decodes the position attributes a spec holds under keys, in
// order.
func specAttrs(spec core.ProgramSpec, keys ...string) ([]tokens.Attr, error) {
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
		as, err := specAttrs(spec, "p")
		if err != nil {
			return nil, true, err
		}
		return seqPairProg{d: d, p: as[0], end: spec.Op == d.op("endPair")}, true, nil
	case d.op("regionPair"), d.op("linePair"):
		as, err := specAttrs(spec, "p1", "p2")
		if err != nil {
			return nil, true, err
		}
		return pairProg{d: d, p1: as[0], p2: as[1], x: spec.Op == d.op("linePair")}, true, nil
	case d.op("linePos"):
		if d == Web {
			break // Lweb has no λx: Pos(x, p)
		}
		as, err := specAttrs(spec, "p")
		if err != nil {
			return nil, true, err
		}
		return d.XPos(as[0]), true, nil
	}
	return nil, false, nil
}

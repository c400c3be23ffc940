package engine

import (
	"fmt"

	"flashextract/internal/core"
	"flashextract/internal/region"
)

// CoreSeq adapts a core-algebra program (§4) to SeqRegionProgram. Every
// DSL built from the core algebra returns its ranked sequence programs in
// it, so the engine runs, captures, serializes and analyzes them without
// looking inside the DSL: the ancestor region is bound to R0 and P's
// output sequence is read back as regions.
type CoreSeq struct{ P core.Program }

// CoreRegion is the RegionProgram counterpart of CoreSeq. A failing P
// denotes the null instance ⊥.
type CoreRegion struct{ P core.Program }

// CoreSeqs wraps ranked core programs in CoreSeq, keeping their order.
func CoreSeqs(ps []core.Program) []SeqRegionProgram {
	out := make([]SeqRegionProgram, len(ps))
	for i, p := range ps {
		out[i] = CoreSeq{p}
	}
	return out
}

// CoreRegions wraps ranked core programs in CoreRegion, keeping their
// order.
func CoreRegions(ps []core.Program) []RegionProgram {
	out := make([]RegionProgram, len(ps))
	for i, p := range ps {
		out[i] = CoreRegion{p}
	}
	return out
}

// ExtractSeq implements SeqRegionProgram.
func (sp CoreSeq) ExtractSeq(r region.Region) ([]region.Region, error) {
	return sp.extract(r, nil)
}

func (sp CoreSeq) String() string { return sp.P.String() }

// extract runs P on r, recording execution provenance in c when non-nil.
func (sp CoreSeq) extract(r region.Region, c *core.ExecCapture) ([]region.Region, error) {
	v, err := sp.P.Exec(coreState(r, c))
	if err != nil {
		return nil, err
	}
	seq, err := core.AsSeq(v)
	if err != nil {
		return nil, err
	}
	out := make([]region.Region, len(seq))
	for i, e := range seq {
		er, ok := e.(region.Region)
		if !ok {
			return nil, fmt.Errorf("engine: program produced %T, want region", e)
		}
		out[i] = er
	}
	return out, nil
}

// Extract implements RegionProgram.
func (rp CoreRegion) Extract(r region.Region) (region.Region, error) {
	return rp.extract(r, nil)
}

func (rp CoreRegion) String() string { return rp.P.String() }

// extract runs P on r, recording execution provenance in c when non-nil.
func (rp CoreRegion) extract(r region.Region, c *core.ExecCapture) (region.Region, error) {
	v, err := rp.P.Exec(coreState(r, c))
	if err != nil {
		return nil, nil // null instance
	}
	er, ok := v.(region.Region)
	if !ok {
		return nil, fmt.Errorf("engine: program produced %T, want region", v)
	}
	return er, nil
}

// coreState binds r to R0, attaching the capture c when non-nil.
func coreState(r region.Region, c *core.ExecCapture) core.State {
	st := core.NewState(r)
	if c != nil {
		st = st.WithCapture(c)
	}
	return st
}

// RegionLess orders region values in document order: the Less relation of
// every DSL's Merge, at learn time and when a program is decoded.
func RegionLess(a, b core.Value) bool {
	ar, ok1 := a.(region.Region)
	br, ok2 := b.(region.Region)
	if !ok1 || !ok2 {
		return false
	}
	return ar.Less(br)
}

// RegionConflict treats a negative instance as violated when an output
// region equals or overlaps it: the conflict predicate every DSL passes to
// core.PreferNonOverlapping and core.SynthesizeSeqRegionProg.
func RegionConflict(out, neg core.Value) bool {
	o, ok1 := out.(region.Region)
	n, ok2 := neg.(region.Region)
	if !ok1 || !ok2 {
		return false
	}
	return o == n || o.Overlaps(n)
}

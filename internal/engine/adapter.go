package engine

import (
	"fmt"

	"flashextract/internal/core"
	"flashextract/internal/region"
)

// ExtractSeq runs the SeqRegion program p (Def. 4) on the ancestor region
// r: r is bound to R0 and p's output sequence is read back as regions.
// Every DSL built from the core algebra (§4) returns its ranked programs
// as core programs, so the engine runs, captures, serializes and analyzes
// them without looking inside the DSL.
func ExtractSeq(p core.Program, r region.Region) ([]region.Region, error) {
	return extractSeq(p, r, nil)
}

// extractSeq is ExtractSeq recording execution provenance in c when
// non-nil.
func extractSeq(p core.Program, r region.Region, c *core.ExecCapture) ([]region.Region, error) {
	v, err := p.Exec(coreState(r, c))
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

// Extract runs the Region program p on the ancestor region r. A failing p
// denotes the null instance ⊥: a nil region with a nil error.
func Extract(p core.Program, r region.Region) (region.Region, error) {
	return extract(p, r, nil)
}

// extract is Extract recording execution provenance in c when non-nil.
func extract(p core.Program, r region.Region, c *core.ExecCapture) (region.Region, error) {
	v, err := p.Exec(coreState(r, c))
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

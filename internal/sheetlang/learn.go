package sheetlang

import (
	"context"
	"fmt"
	"sort"

	"flashextract/internal/core"
	"flashextract/internal/engine"
)

// attrCap bounds attribute candidate lists in cross products.
const attrCap = 12

// lang implements engine.Language for spreadsheets.
type lang struct{}

// SynthesizeSeqRegion learns N1 programs (Fig. 9): a Merge of cell
// sequences (CS) or of cell-pair sequences (PS).
func (l *lang) SynthesizeSeqRegion(ctx context.Context, exs []engine.SeqRegionExample) []engine.SeqRegionProgram {
	if len(exs) == 0 {
		return nil
	}
	specs := make([]core.SeqSpec, 0, len(exs))
	for _, ex := range exs {
		if _, _, _, _, _, ok := bounds(ex.Input); !ok {
			return nil
		}
		spec := core.SeqSpec{State: core.NewState(ex.Input).WithExecMemo()}
		for _, p := range ex.Positive {
			spec.Positive = append(spec.Positive, core.Value(p))
		}
		for _, n := range ex.Negative {
			spec.Negative = append(spec.Negative, core.Value(n))
		}
		specs = append(specs, spec)
	}
	inner := core.PreferNonOverlapping(
		core.UnionLearners(learnCS(), learnPSStart(), learnPSEnd()),
		engine.RegionConflict,
	)
	n1 := core.PreferNonOverlapping(
		core.MergeOp{A: inner, Less: engine.RegionLess}.Learn,
		engine.RegionConflict,
	)
	return engine.CoreSeqs(core.SynthesizeSeqRegionProg(ctx, n1, specs, engine.RegionConflict))
}

// SynthesizeRegion learns N2 programs: Cell(R0, c) for single cells and
// Pair(Cell(R0,c1), Cell(R0,c2)) for rectangles.
func (l *lang) SynthesizeRegion(ctx context.Context, exs []engine.RegionExample) []engine.RegionProgram {
	if len(exs) == 0 {
		return nil
	}
	var coreExs []core.Example
	var inRects []RectRegion
	var cells []CellRegion
	var rectStarts, rectEnds []CellRegion
	isCell := false
	for i, ex := range exs {
		d, r1, c1, r2, c2, ok := bounds(ex.Input)
		if !ok || !ex.Input.Contains(ex.Output) {
			return nil
		}
		coreExs = append(coreExs, core.Example{State: core.NewState(ex.Input), Output: ex.Output})
		inRects = append(inRects, RectRegion{Doc: d, R1: r1, C1: c1, R2: r2, C2: c2})
		switch out := ex.Output.(type) {
		case CellRegion:
			if i > 0 && !isCell {
				return nil
			}
			isCell = true
			cells = append(cells, out)
		case RectRegion:
			if isCell {
				return nil
			}
			rectStarts = append(rectStarts, CellRegion{Doc: out.Doc, R: out.R1, C: out.C1})
			rectEnds = append(rectEnds, CellRegion{Doc: out.Doc, R: out.R2, C: out.C2})
		default:
			return nil
		}
	}
	var cands []core.Program
	if isCell {
		for _, a := range learnCellAttrs(inRects, cells) {
			cands = append(cands, cellProg{c: a})
		}
	} else {
		c1s := capCellAttrs(learnCellAttrs(inRects, rectStarts), attrCap)
		c2s := capCellAttrs(learnCellAttrs(inRects, rectEnds), attrCap)
		for _, a1 := range c1s {
			for _, a2 := range c2s {
				cands = append(cands, cellPairProg{c1: a1, c2: a2})
			}
		}
	}
	progs := core.SynthesizeRegionProg(ctx, func(context.Context, []core.Example) []core.Program { return cands }, coreExs)
	return engine.CoreRegions(progs)
}

func capCellAttrs(as []cellAttr, n int) []cellAttr {
	if len(as) > n {
		return as[:n]
	}
	return as
}

// ---- CS: cell sequences ----

// learnCS is CS ::= FilterInt(init, iter, CE) | CellRowMap(λx: Cell(x,c), RS).
func learnCS() core.SeqLearner {
	filtered := core.FilterIntOp{S: learnCE}
	rowMap := core.MapOp{
		Name: "CellRowMap",
		Var:  lambdaVar,
		F:    learnCellInRow,
		S:    learnRS(),
		Decompose: func(st core.State, y []core.Value) ([]core.Value, error) {
			d, _, c1, _, c2, err := inputBounds(st)
			if err != nil {
				return nil, err
			}
			out := make([]core.Value, len(y))
			for i, v := range y {
				cell, ok := v.(CellRegion)
				if !ok {
					return nil, fmt.Errorf("sheetlang: CellRowMap output is %T, want cell", v)
				}
				out[i] = RectRegion{Doc: d, R1: cell.R, C1: c1, R2: cell.R, C2: c2}
			}
			return out, nil
		},
	}
	return core.UnionLearners(rowMap.Learn, filtered.Learn)
}

// learnCE is CE ::= FilterBool(cb, splitcells(R0)).
func learnCE(ctx context.Context, exs []core.SeqExample) []core.Program {
	op := core.FilterBoolOp{Var: lambdaVar, B: learnCellPredProgs, S: learnSplitCells}
	return op.Learn(ctx, exs)
}

func learnSplitCells(_ context.Context, exs []core.SeqExample) []core.Program {
	for _, ex := range exs {
		out, err := splitCells.Exec(ex.State)
		if err != nil {
			return nil
		}
		seq, err := core.AsSeq(out)
		if err != nil || !core.IsSubsequence(ex.Positive, seq) {
			return nil
		}
	}
	return []core.Program{splitCells}
}

// learnCellPredProgs learns cell predicates cb from positive cell
// examples: per-slot most specific common tokens over the 3×3
// neighbourhood, combined into candidates from simple to fully
// constrained.
func learnCellPredProgs(_ context.Context, exs []core.Example) []core.Program {
	var d *Document
	var cells []CellRegion
	for _, ex := range exs {
		v, _ := ex.State.Lookup(lambdaVar)
		cell, ok := v.(CellRegion)
		if !ok {
			return nil
		}
		d = cell.Doc
		cells = append(cells, cell)
	}
	if d == nil {
		return []core.Program{truePred()}
	}
	var out []core.Program
	for _, p := range cellPredCandidates(d, cells) {
		out = append(out, p)
	}
	return out
}

func cellPredCandidates(d *Document, cells []CellRegion) []cellPred {
	var specific [9]CellTok
	for i, off := range neighborhood {
		contents := make([]string, len(cells))
		for j, cl := range cells {
			contents[j] = d.Grid.Cell(cl.R+off[0], cl.C+off[1])
		}
		specific[i] = mostSpecificCommon(d, contents)
	}
	const center = 4
	var out []cellPred
	seen := map[string]bool{}
	add := func(slots ...int) {
		p := truePred()
		for _, s := range slots {
			p.toks[s] = specific[s]
		}
		key := p.String()
		if !seen[key] {
			seen[key] = true
			out = append(out, p)
		}
	}
	add(center)
	add(center, 3)
	add(center, 1)
	add(center, 5)
	add(center, 7)
	add(center, 1, 3, 5, 7)
	add(0, 1, 2, 3, 4, 5, 6, 7, 8)
	for s := 0; s < 9; s++ {
		if s != center {
			add(s)
		}
	}
	add() // True
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cost() < out[j].Cost() })
	return out
}

// ---- RS: row sequences ----

// learnRS is RS ::= FilterInt(init, iter, FilterBool(rb, splitrows(R0))).
func learnRS() core.SeqLearner {
	inner := core.FilterBoolOp{Var: lambdaVar, B: learnRowPredProgs, S: learnSplitRows}
	return core.FilterIntOp{S: inner.Learn}.Learn
}

func learnSplitRows(_ context.Context, exs []core.SeqExample) []core.Program {
	for _, ex := range exs {
		out, err := splitRows.Exec(ex.State)
		if err != nil {
			return nil
		}
		seq, err := core.AsSeq(out)
		if err != nil || !core.IsSubsequence(ex.Positive, seq) {
			return nil
		}
	}
	return []core.Program{splitRows}
}

// learnRowPredProgs learns row predicates rb from positive row examples:
// per-column most specific common tokens, as prefix sequences of
// increasing length.
func learnRowPredProgs(_ context.Context, exs []core.Example) []core.Program {
	var rows []RectRegion
	for _, ex := range exs {
		v, _ := ex.State.Lookup(lambdaVar)
		row, ok := v.(RectRegion)
		if !ok || row.R1 != row.R2 {
			return nil
		}
		rows = append(rows, row)
	}
	out := []core.Program{rowPred{}}
	if len(rows) == 0 {
		return out
	}
	width := rows[0].C2 - rows[0].C1 + 1
	if width > 8 {
		width = 8
	}
	var specific []CellTok
	for j := 0; j < width; j++ {
		contents := make([]string, len(rows))
		for i, row := range rows {
			contents[i] = row.Doc.Grid.Cell(row.R1, row.C1+j)
		}
		specific = append(specific, mostSpecificCommon(rows[0].Doc, contents))
	}
	seen := map[string]bool{"λx: True": true}
	for l := 1; l <= len(specific); l++ {
		p := rowPred{toks: append([]CellTok(nil), specific[:l]...)}
		allAny := true
		for _, t := range p.toks {
			if t.Name != AnyCell.Name {
				allAny = false
			}
		}
		if allAny {
			continue
		}
		if key := p.String(); !seen[key] {
			seen[key] = true
			out = append(out, p)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].(rowPred).Cost() < out[j].(rowPred).Cost()
	})
	return out
}

// ---- scalar learners over cells ----

// learnCellInRow learns λx: Cell(x, c) from examples binding x to a row
// and outputting a cell within it.
func learnCellInRow(_ context.Context, exs []core.Example) []core.Program {
	var rects []RectRegion
	var cells []CellRegion
	for _, ex := range exs {
		v, _ := ex.State.Lookup(lambdaVar)
		row, ok := v.(RectRegion)
		if !ok {
			return nil
		}
		cell, ok := ex.Output.(CellRegion)
		if !ok || !row.Contains(cell) {
			return nil
		}
		rects = append(rects, row)
		cells = append(cells, cell)
	}
	attrs := capCellAttrs(learnCellAttrs(rects, cells), attrCap)
	out := make([]core.Program, len(attrs))
	for i, a := range attrs {
		out[i] = cellRowMapF{c: a}
	}
	return out
}

// learnCellAttrs learns cell attributes locating each output cell within
// its rectangle: absolute row-major positions and predicate-relative
// positions (RegCell).
func learnCellAttrs(rects []RectRegion, cells []CellRegion) []cellAttr {
	if len(rects) == 0 || len(rects) != len(cells) {
		return nil
	}
	var out []cellAttr
	// AbsCell: consistent forward and backward row-major index.
	fwd, fwdOK, bwd, bwdOK := commonRowMajorIndex(rects, cells)
	if fwdOK {
		out = append(out, absCell{k: fwd})
	}
	if bwdOK {
		out = append(out, absCell{k: bwd})
	}
	// RegCell: predicate candidates from the output cells' neighbourhoods.
	d := cells[0].Doc
	for _, cb := range cellPredCandidates(d, cells) {
		if cb.isTrue() {
			continue
		}
		k, kNeg, ok := commonPredIndex(rects, cells, cb)
		if !ok {
			continue
		}
		out = append(out, regCell{cb: cb, k: k})
		if kNeg != k {
			out = append(out, regCell{cb: cb, k: kNeg})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].cost() < out[j].cost() })
	return out
}

// commonRowMajorIndex returns the forward and backward row-major indices
// of every cell within its rectangle, when consistent across examples.
func commonRowMajorIndex(rects []RectRegion, cells []CellRegion) (fwd int, fwdOK bool, bwd int, bwdOK bool) {
	for i := range rects {
		r, c := rects[i], cells[i]
		width := r.C2 - r.C1 + 1
		total := width * (r.R2 - r.R1 + 1)
		k := (c.R-r.R1)*width + (c.C - r.C1)
		kb := k - total
		if i == 0 {
			fwd, bwd, fwdOK, bwdOK = k, kb, true, true
			continue
		}
		if k != fwd {
			fwdOK = false
		}
		if kb != bwd {
			bwdOK = false
		}
	}
	return fwd, fwdOK, bwd, bwdOK
}

// commonPredIndex returns the 1-based (and negative, counted from the
// right) position of every cell among the predicate's matches within its
// rectangle, keeping whichever side is consistent across all examples.
func commonPredIndex(rects []RectRegion, cells []CellRegion, cb cellPred) (k, kNeg int, ok bool) {
	posOK, negOK := true, true
	for i := range rects {
		r, c := rects[i], cells[i]
		idx, count := 0, 0
		for _, cell := range cellsIn(r.Doc, r.R1, r.C1, r.R2, r.C2) {
			if cb.MatchesAt(r.Doc, cell.R, cell.C) {
				count++
				if cell == c {
					idx = count
				}
			}
		}
		if idx == 0 {
			return 0, 0, false
		}
		curNeg := idx - count - 1
		if i == 0 {
			k, kNeg = idx, curNeg
			continue
		}
		if idx != k {
			posOK = false
		}
		if curNeg != kNeg {
			negOK = false
		}
	}
	switch {
	case posOK && negOK:
		return k, kNeg, true
	case posOK:
		return k, k, true
	case negOK:
		return kNeg, kNeg, true
	default:
		return 0, 0, false
	}
}

// learnStartPairF learns λx: Pair(x, Cell(R0[x:], c)).
func learnStartPairF(_ context.Context, exs []core.Example) []core.Program {
	var rects []RectRegion
	var ends []CellRegion
	for _, ex := range exs {
		d, _, _, r2, c2, err := inputBounds(ex.State)
		if err != nil {
			return nil
		}
		v, _ := ex.State.Lookup(lambdaVar)
		x, ok := v.(CellRegion)
		if !ok {
			return nil
		}
		y, ok := ex.Output.(RectRegion)
		if !ok || y.R1 != x.R || y.C1 != x.C || y.R2 > r2 || y.C2 > c2 {
			return nil
		}
		rects = append(rects, RectRegion{Doc: d, R1: x.R, C1: x.C, R2: r2, C2: c2})
		ends = append(ends, CellRegion{Doc: d, R: y.R2, C: y.C2})
	}
	attrs := capCellAttrs(learnCellAttrs(rects, ends), attrCap)
	out := make([]core.Program, len(attrs))
	for i, a := range attrs {
		out[i] = startPairF{c: a}
	}
	return out
}

// learnEndPairF learns λx: Pair(Cell(R0[:x], c), x).
func learnEndPairF(_ context.Context, exs []core.Example) []core.Program {
	var rects []RectRegion
	var starts []CellRegion
	for _, ex := range exs {
		d, r1, c1, _, _, err := inputBounds(ex.State)
		if err != nil {
			return nil
		}
		v, _ := ex.State.Lookup(lambdaVar)
		x, ok := v.(CellRegion)
		if !ok {
			return nil
		}
		y, ok := ex.Output.(RectRegion)
		if !ok || y.R2 != x.R || y.C2 != x.C || y.R1 < r1 || y.C1 < c1 {
			return nil
		}
		rects = append(rects, RectRegion{Doc: d, R1: r1, C1: c1, R2: x.R, C2: x.C})
		starts = append(starts, CellRegion{Doc: d, R: y.R1, C: y.C1})
	}
	attrs := capCellAttrs(learnCellAttrs(rects, starts), attrCap)
	out := make([]core.Program, len(attrs))
	for i, a := range attrs {
		out[i] = endPairF{c: a}
	}
	return out
}

// learnPSStart is PS ::= StartSeqMap(λx: Pair(x, Cell(R0[x:], c)), CS).
func learnPSStart() core.SeqLearner {
	op := core.MapOp{
		Name: "StartSeqMap",
		Var:  lambdaVar,
		F:    learnStartPairF,
		S:    learnCS(),
		Decompose: func(st core.State, y []core.Value) ([]core.Value, error) {
			out := make([]core.Value, len(y))
			for i, v := range y {
				rect, ok := v.(RectRegion)
				if !ok {
					return nil, fmt.Errorf("sheetlang: StartSeqMap output is %T, want rect", v)
				}
				out[i] = CellRegion{Doc: rect.Doc, R: rect.R1, C: rect.C1}
			}
			return out, nil
		},
	}
	return op.Learn
}

// learnPSEnd is PS ::= EndSeqMap(λx: Pair(Cell(R0[:x], c), x), CS).
func learnPSEnd() core.SeqLearner {
	op := core.MapOp{
		Name: "EndSeqMap",
		Var:  lambdaVar,
		F:    learnEndPairF,
		S:    learnCS(),
		Decompose: func(st core.State, y []core.Value) ([]core.Value, error) {
			out := make([]core.Value, len(y))
			for i, v := range y {
				rect, ok := v.(RectRegion)
				if !ok {
					return nil, fmt.Errorf("sheetlang: EndSeqMap output is %T, want rect", v)
				}
				out[i] = CellRegion{Doc: rect.Doc, R: rect.R2, C: rect.C2}
			}
			return out, nil
		},
	}
	return op.Learn
}

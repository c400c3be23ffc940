package sheetlang

import (
	"encoding/json"
	"fmt"

	"flashextract/internal/core"
)

// This file implements program serialization for Lsps (see core.Encode).

// cellTokSpec is the serializable form of a cell token.
type cellTokSpec struct {
	Kind  string `json:"kind"` // "std" or "lit"
	Value string `json:"value"`
}

var standardCellToks = map[string]CellTok{
	AnyCell.Name: AnyCell, EmptyCell.Name: EmptyCell, NonEmptyCell.Name: NonEmptyCell,
	NumericCell.Name: NumericCell, AlphaCell.Name: AlphaCell,
}

func (t CellTok) spec() cellTokSpec {
	if t.isLit {
		return cellTokSpec{Kind: "lit", Value: t.lit}
	}
	return cellTokSpec{Kind: "std", Value: t.Name}
}

func cellTokFromSpec(s cellTokSpec) (CellTok, error) {
	switch s.Kind {
	case "lit":
		return LiteralCell(s.Value), nil
	case "std":
		t, ok := standardCellToks[s.Value]
		if !ok {
			return CellTok{}, fmt.Errorf("sheetlang: unknown standard cell token %q", s.Value)
		}
		return t, nil
	default:
		return CellTok{}, fmt.Errorf("sheetlang: unknown cell token kind %q", s.Kind)
	}
}

func marshalCellToks(toks []CellTok) (string, error) {
	specs := make([]cellTokSpec, len(toks))
	for i, t := range toks {
		specs[i] = t.spec()
	}
	b, err := json.Marshal(specs)
	return string(b), err
}

func unmarshalCellToks(s string) ([]CellTok, error) {
	var specs []cellTokSpec
	if err := json.Unmarshal([]byte(s), &specs); err != nil {
		return nil, err
	}
	out := make([]CellTok, len(specs))
	for i, sp := range specs {
		t, err := cellTokFromSpec(sp)
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}

// cellAttrSpec is the serializable form of a cell attribute.
type cellAttrSpec struct {
	Kind string `json:"kind"` // "abs" or "reg"
	K    int    `json:"k"`
	CB   string `json:"cb,omitempty"` // cell predicate tokens for "reg"
}

func marshalCellAttr(a cellAttr) (string, error) {
	switch v := a.(type) {
	case absCell:
		b, err := json.Marshal(cellAttrSpec{Kind: "abs", K: v.k})
		return string(b), err
	case regCell:
		cb, err := marshalCellToks(v.cb.toks[:])
		if err != nil {
			return "", err
		}
		b, err := json.Marshal(cellAttrSpec{Kind: "reg", K: v.k, CB: cb})
		return string(b), err
	default:
		return "", fmt.Errorf("sheetlang: unknown cell attribute %T", a)
	}
}

func unmarshalCellAttr(s string) (cellAttr, error) {
	var spec cellAttrSpec
	if err := json.Unmarshal([]byte(s), &spec); err != nil {
		return nil, err
	}
	switch spec.Kind {
	case "abs":
		return absCell{k: spec.K}, nil
	case "reg":
		toks, err := unmarshalCellToks(spec.CB)
		if err != nil {
			return nil, err
		}
		if len(toks) != 9 {
			return nil, fmt.Errorf("sheetlang: cell predicate needs 9 tokens, got %d", len(toks))
		}
		var cb cellPred
		copy(cb.toks[:], toks)
		return regCell{cb: cb, k: spec.K}, nil
	default:
		return nil, fmt.Errorf("sheetlang: unknown cell attribute kind %q", spec.Kind)
	}
}

// EncodeProgram serializes the fixed splitcells expression.
func (splitCellsProg) EncodeProgram() (core.ProgramSpec, error) {
	return core.ProgramSpec{Op: "sheet.splitcells"}, nil
}

// EncodeProgram serializes the fixed splitrows expression.
func (splitRowsProg) EncodeProgram() (core.ProgramSpec, error) {
	return core.ProgramSpec{Op: "sheet.splitrows"}, nil
}

// EncodeProgram serializes a cell predicate.
func (p cellPred) EncodeProgram() (core.ProgramSpec, error) {
	toks, err := marshalCellToks(p.toks[:])
	if err != nil {
		return core.ProgramSpec{}, err
	}
	return core.ProgramSpec{Op: "sheet.cellPred", Attrs: map[string]string{"toks": toks}}, nil
}

// EncodeProgram serializes a row predicate.
func (p rowPred) EncodeProgram() (core.ProgramSpec, error) {
	toks, err := marshalCellToks(p.toks)
	if err != nil {
		return core.ProgramSpec{}, err
	}
	return core.ProgramSpec{Op: "sheet.rowPred", Attrs: map[string]string{"toks": toks}}, nil
}

func cellAttrProgSpec(op string, c cellAttr) (core.ProgramSpec, error) {
	a, err := marshalCellAttr(c)
	if err != nil {
		return core.ProgramSpec{}, err
	}
	return core.ProgramSpec{Op: op, Attrs: map[string]string{"c": a}}, nil
}

// EncodeProgram serializes the CellRowMap function.
func (p cellRowMapF) EncodeProgram() (core.ProgramSpec, error) {
	return cellAttrProgSpec("sheet.cellRowMapF", p.c)
}

// EncodeProgram serializes the StartSeqMap function.
func (p startPairF) EncodeProgram() (core.ProgramSpec, error) {
	return cellAttrProgSpec("sheet.startPairF", p.c)
}

// EncodeProgram serializes the EndSeqMap function.
func (p endPairF) EncodeProgram() (core.ProgramSpec, error) {
	return cellAttrProgSpec("sheet.endPairF", p.c)
}

// EncodeProgram serializes the N2 single-cell expression.
func (p cellProg) EncodeProgram() (core.ProgramSpec, error) {
	return cellAttrProgSpec("sheet.cell", p.c)
}

// EncodeProgram serializes the N2 cell-pair expression.
func (p cellPairProg) EncodeProgram() (core.ProgramSpec, error) {
	a1, err := marshalCellAttr(p.c1)
	if err != nil {
		return core.ProgramSpec{}, err
	}
	a2, err := marshalCellAttr(p.c2)
	if err != nil {
		return core.ProgramSpec{}, err
	}
	return core.ProgramSpec{Op: "sheet.cellPair", Attrs: map[string]string{"c1": a1, "c2": a2}}, nil
}

// DecodeLeaf implements engine.ProgramCodec: it reconstructs Lsps leaf
// programs.
func (*lang) DecodeLeaf(spec core.ProgramSpec) (core.Program, error) {
	switch spec.Op {
	case "sheet.splitcells":
		return splitCells, nil
	case "sheet.splitrows":
		return splitRows, nil
	case "sheet.cellPred":
		toks, err := unmarshalCellToks(spec.Attrs["toks"])
		if err != nil {
			return nil, err
		}
		if len(toks) != 9 {
			return nil, fmt.Errorf("sheetlang: cell predicate needs 9 tokens, got %d", len(toks))
		}
		var p cellPred
		copy(p.toks[:], toks)
		return p, nil
	case "sheet.rowPred":
		toks, err := unmarshalCellToks(spec.Attrs["toks"])
		if err != nil {
			return nil, err
		}
		return rowPred{toks: toks}, nil
	case "sheet.cellRowMapF", "sheet.startPairF", "sheet.endPairF", "sheet.cell":
		c, err := unmarshalCellAttr(spec.Attrs["c"])
		if err != nil {
			return nil, err
		}
		switch spec.Op {
		case "sheet.cellRowMapF":
			return cellRowMapF{c: c}, nil
		case "sheet.startPairF":
			return startPairF{c: c}, nil
		case "sheet.endPairF":
			return endPairF{c: c}, nil
		default:
			return cellProg{c: c}, nil
		}
	case "sheet.cellPair":
		c1, err := unmarshalCellAttr(spec.Attrs["c1"])
		if err != nil {
			return nil, err
		}
		c2, err := unmarshalCellAttr(spec.Attrs["c2"])
		if err != nil {
			return nil, err
		}
		return cellPairProg{c1: c1, c2: c2}, nil
	default:
		return nil, fmt.Errorf("sheetlang: unknown leaf operator %q", spec.Op)
	}
}

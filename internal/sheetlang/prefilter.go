package sheetlang

import "flashextract/internal/prefilter"

// This file exposes Lsps programs to the batch prefilter. Grid cells are
// loaded from CSV, where cell content bytes appear verbatim except that
// '"' is written doubled — so literal cell tokens yield substring
// requirements on the raw CSV and content-class tokens yield byte masks.

// numericMask holds the bytes a Numeric cell is guaranteed to contribute:
// isNumeric requires at least one digit.
var numericMask = func() prefilter.ByteMask {
	var m prefilter.ByteMask
	for b := byte('0'); b <= '9'; b++ {
		m.Set(b)
	}
	return m
}()

// alphaMask holds the non-space bytes an Alpha cell may consist of;
// isAlphaCell demands a non-empty trim, so at least one is present.
var alphaMask = func() prefilter.ByteMask {
	var m prefilter.ByteMask
	for b := byte('a'); b <= 'z'; b++ {
		m.Set(b)
	}
	for b := byte('A'); b <= 'Z'; b++ {
		m.Set(b)
	}
	for _, b := range []byte{'.', '&', '-', '\''} {
		m.Set(b)
	}
	return m
}()

// nonWhitespaceMask holds every byte except ASCII whitespace: the first
// byte of a TrimSpace-surviving rune is never one of these whitespace
// bytes, so a NonEmpty cell guarantees one byte from this mask.
var nonWhitespaceMask = func() prefilter.ByteMask {
	var m prefilter.ByteMask
	for b := 0; b < 256; b++ {
		switch byte(b) {
		case ' ', '\t', '\n', '\v', '\f', '\r':
		default:
			m.Set(byte(b))
		}
	}
	return m
}()

// condCellTok derives what the CSV must contain for some in-grid cell to
// satisfy the token. Tokens that accept the empty string give no
// information: a matching neighbour may lie outside the grid, where
// reads yield "".
func condCellTok(t CellTok) prefilter.Cond {
	if t.isLit {
		if t.lit == "" {
			return prefilter.True()
		}
		return prefilter.CondCellLiteral(t.lit)
	}
	switch t.Name {
	case NumericCell.Name:
		return prefilter.CondByteMask(numericMask, 1)
	case AlphaCell.Name:
		return prefilter.CondByteMask(alphaMask, 1)
	case NonEmptyCell.Name:
		return prefilter.CondByteMask(nonWhitespaceMask, 1)
	default: // Any, Empty: satisfied by blank or out-of-grid cells
		return prefilter.True()
	}
}

// AdmissionCond: a matching cell needs all nine neighbourhood tokens to
// hold simultaneously, each witnessed somewhere in the sheet.
func (p cellPred) AdmissionCond() prefilter.Cond {
	c := prefilter.True()
	for _, t := range p.toks {
		c = prefilter.And(c, condCellTok(t))
	}
	return c
}

// AdmissionCond: a matching row needs every prefix token to hold.
func (p rowPred) AdmissionCond() prefilter.Cond {
	c := prefilter.True()
	for _, t := range p.toks {
		c = prefilter.And(c, condCellTok(t))
	}
	return c
}

// condCellAttr derives the admission condition of a cell attribute.
func condCellAttr(c cellAttr) prefilter.Cond {
	switch v := c.(type) {
	case absCell:
		return prefilter.True()
	case regCell:
		if v.k == 0 {
			return prefilter.False() // RegCell with k = 0 never matches
		}
		return v.cb.AdmissionCond()
	}
	return prefilter.True()
}

// AdmissionCond: the mapped cell attribute must resolve within the row.
func (p cellRowMapF) AdmissionCond() prefilter.Cond {
	return condCellAttr(p.c)
}

// AdmissionCond: the end cell attribute must resolve.
func (p startPairF) AdmissionCond() prefilter.Cond {
	return condCellAttr(p.c)
}

// AdmissionCond: the start cell attribute must resolve.
func (p endPairF) AdmissionCond() prefilter.Cond {
	return condCellAttr(p.c)
}

// AdmissionCond: the cell attribute must resolve within the region.
func (p cellProg) AdmissionCond() prefilter.Cond {
	return condCellAttr(p.c)
}

// AdmissionCond: both corner attributes must resolve.
func (p cellPairProg) AdmissionCond() prefilter.Cond {
	return prefilter.And(condCellAttr(p.c1), condCellAttr(p.c2))
}

// Package sheetlang implements Lsps, the FlashExtract data-extraction DSL
// for spreadsheets (Fig. 9 of the paper), together with its learners. A
// leaf region is a single cell; a non-leaf region is a rectangular cell
// range. Cell sequences are selected by cell predicates (the content of a
// cell and its eight neighbours matched against nine tokens) or by row
// predicates (consecutive cell contents matched against a token sequence),
// optionally refined by index filters; ranges are built by pairing start
// and end cells.
package sheetlang

import (
	"fmt"
	"strings"
	"sync"

	"flashextract/internal/engine"
	"flashextract/internal/region"
	"flashextract/internal/sheet"
)

// Document is a spreadsheet.
type Document struct {
	Grid *sheet.Grid

	countsOnce sync.Once
	counts     map[string]int // lazy cache of cell content frequencies
}

// contentCount returns how many cells of the sheet hold exactly s. The
// lazy count build is synchronized: concurrent rule learners
// (core.UnionLearners) share the document.
func (d *Document) contentCount(s string) int {
	d.countsOnce.Do(func() {
		d.counts = map[string]int{}
		for r := 0; r < d.Grid.Rows; r++ {
			for c := 0; c < d.Grid.Cols; c++ {
				d.counts[d.Grid.Cell(r, c)]++
			}
		}
	})
	return d.counts[s]
}

// NewDocument wraps a grid.
func NewDocument(g *sheet.Grid) *Document {
	return &Document{Grid: g}
}

// FromCSV loads a spreadsheet from CSV text.
func FromCSV(src string) (*Document, error) {
	g, err := sheet.FromCSV(src)
	if err != nil {
		return nil, err
	}
	return NewDocument(g), nil
}

// MustFromCSV is FromCSV for statically known workbooks.
func MustFromCSV(src string) *Document {
	d, err := FromCSV(src)
	if err != nil {
		panic(err)
	}
	return d
}

// WholeRegion returns the rectangle covering the entire sheet.
func (d *Document) WholeRegion() region.Region {
	return RectRegion{Doc: d, R1: 0, C1: 0, R2: d.Grid.Rows - 1, C2: d.Grid.Cols - 1}
}

// Language returns the Lsps DSL, Language().
func (d *Document) Language() engine.Language { return Language() }

// Language returns the Lsps DSL, which holds no state: every document
// of the package shares it.
func Language() engine.Language { return lang{} }

// CellAt returns the cell region at (r, c).
func (d *Document) CellAt(r, c int) CellRegion {
	if !d.Grid.InRange(r, c) {
		panic(fmt.Sprintf("sheetlang: cell (%d,%d) out of range", r, c))
	}
	return CellRegion{Doc: d, R: r, C: c}
}

// Rect returns the rectangular region with the given inclusive corners.
func (d *Document) Rect(r1, c1, r2, c2 int) RectRegion {
	if r1 > r2 || c1 > c2 || !d.Grid.InRange(r1, c1) || !d.Grid.InRange(r2, c2) {
		panic(fmt.Sprintf("sheetlang: invalid rect (%d,%d)-(%d,%d)", r1, c1, r2, c2))
	}
	return RectRegion{Doc: d, R1: r1, C1: c1, R2: r2, C2: c2}
}

// Row returns the full-width rectangle of one row.
func (d *Document) Row(r int) RectRegion {
	return d.Rect(r, 0, r, d.Grid.Cols-1)
}

// bounds returns the rectangular bounds of any sheetlang region.
func bounds(r region.Region) (doc *Document, r1, c1, r2, c2 int, ok bool) {
	switch v := r.(type) {
	case CellRegion:
		return v.Doc, v.R, v.C, v.R, v.C, true
	case RectRegion:
		return v.Doc, v.R1, v.C1, v.R2, v.C2, true
	default:
		return nil, 0, 0, 0, 0, false
	}
}

// CellRegion is a single-cell (leaf) region.
type CellRegion struct {
	Doc  *Document
	R, C int
}

var _ region.Region = CellRegion{}

// Contains reports nesting: a cell contains only itself (or an equal
// one-cell rectangle).
func (r CellRegion) Contains(other region.Region) bool {
	doc, r1, c1, r2, c2, ok := bounds(other)
	return ok && doc == r.Doc && r1 == r.R && r2 == r.R && c1 == r.C && c2 == r.C
}

// Overlaps reports bound intersection.
func (r CellRegion) Overlaps(other region.Region) bool {
	doc, r1, c1, r2, c2, ok := bounds(other)
	return ok && doc == r.Doc && r1 <= r.R && r.R <= r2 && c1 <= r.C && r.C <= c2
}

// Less orders cells in row-major order; at the same position a rectangle
// (outer) precedes the cell, so a cell is never less than a region
// starting at its own coordinates.
func (r CellRegion) Less(other region.Region) bool {
	_, r1, c1, _, _, ok := bounds(other)
	if !ok {
		return false
	}
	return r.R < r1 || (r.R == r1 && r.C < c1)
}

// Value returns the cell content.
func (r CellRegion) Value() string { return r.Doc.Grid.Cell(r.R, r.C) }

// SourceSpan reports the cell as a one-cell grid rectangle.
func (r CellRegion) SourceSpan() region.SourceSpan {
	return region.SourceSpan{Space: "grid", R1: r.R, C1: r.C, R2: r.R, C2: r.C}
}

func (r CellRegion) String() string { return fmt.Sprintf("cell(%d,%d)", r.R, r.C) }

// RectRegion is a rectangular (non-leaf) region with inclusive corners.
type RectRegion struct {
	Doc            *Document
	R1, C1, R2, C2 int
}

var _ region.Region = RectRegion{}

// Contains reports bound nesting.
func (r RectRegion) Contains(other region.Region) bool {
	doc, r1, c1, r2, c2, ok := bounds(other)
	return ok && doc == r.Doc && r.R1 <= r1 && r.C1 <= c1 && r2 <= r.R2 && c2 <= r.C2
}

// Overlaps reports bound intersection.
func (r RectRegion) Overlaps(other region.Region) bool {
	doc, r1, c1, r2, c2, ok := bounds(other)
	return ok && doc == r.Doc && r.R1 <= r2 && r1 <= r.R2 && r.C1 <= c2 && c1 <= r.C2
}

// Less orders rectangles by top-left corner; larger rectangles first.
func (r RectRegion) Less(other region.Region) bool {
	_, r1, c1, r2, c2, ok := bounds(other)
	if !ok {
		return false
	}
	if r.R1 != r1 {
		return r.R1 < r1
	}
	if r.C1 != c1 {
		return r.C1 < c1
	}
	// same top-left: bigger area first
	return (r.R2-r.R1+1)*(r.C2-r.C1+1) > (r2-r1+1)*(c2-c1+1)
}

// Value returns the rectangle's contents: cells joined by tabs, rows by
// newlines.
func (r RectRegion) Value() string {
	var b strings.Builder
	for row := r.R1; row <= r.R2; row++ {
		if row > r.R1 {
			b.WriteByte('\n')
		}
		for col := r.C1; col <= r.C2; col++ {
			if col > r.C1 {
				b.WriteByte('\t')
			}
			b.WriteString(r.Doc.Grid.Cell(row, col))
		}
	}
	return b.String()
}

// SourceSpan reports the rectangle's inclusive grid corners.
func (r RectRegion) SourceSpan() region.SourceSpan {
	return region.SourceSpan{Space: "grid", R1: r.R1, C1: r.C1, R2: r.R2, C2: r.C2}
}

func (r RectRegion) String() string {
	return fmt.Sprintf("rect(%d,%d)-(%d,%d)", r.R1, r.C1, r.R2, r.C2)
}

// cellsIn returns the cells of the region in row-major order
// (splitcells).
func cellsIn(d *Document, r1, c1, r2, c2 int) []CellRegion {
	var out []CellRegion
	for r := r1; r <= r2; r++ {
		for c := c1; c <= c2; c++ {
			out = append(out, CellRegion{Doc: d, R: r, C: c})
		}
	}
	return out
}

// rowsIn returns the row rectangles of the region (splitrows), clipped to
// the region's column range.
func rowsIn(d *Document, r1, c1, r2, c2 int) []RectRegion {
	var out []RectRegion
	for r := r1; r <= r2; r++ {
		out = append(out, RectRegion{Doc: d, R1: r, C1: c1, R2: r, C2: c2})
	}
	return out
}

// Span returns the bounding rectangle of a and b, enabling bottom-up
// structure inference (see engine.Spanner).
func (d *Document) Span(a, b region.Region) (region.Region, error) {
	da, r1a, c1a, r2a, c2a, ok1 := bounds(a)
	db, r1b, c1b, r2b, c2b, ok2 := bounds(b)
	if !ok1 || !ok2 || da != d || db != d {
		return nil, fmt.Errorf("sheetlang: Span requires two regions of this document")
	}
	return RectRegion{
		Doc: d,
		R1:  min(r1a, r1b), C1: min(c1a, c1b),
		R2: max(r2a, r2b), C2: max(c2a, c2b),
	}, nil
}

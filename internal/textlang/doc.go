// Package textlang implements Ltext, the FlashExtract data-extraction DSL
// for text files (Fig. 7 of the paper), together with its learners. A
// region is a pair of character positions in the file; sequence programs
// combine line-level maps (LinesMap), position-sequence maps (StartSeqMap,
// EndSeqMap), line and position filters, and a top-level Merge; region
// programs pair two learned position attributes. The position sequences,
// their maps and the region pair are the sublanguage Ltext shares with
// Lweb, package poslang; this package holds the line-level rest.
package textlang

import (
	"fmt"
	"strings"
	"sync"

	"flashextract/internal/core"
	"flashextract/internal/engine"
	"flashextract/internal/poslang"
	"flashextract/internal/region"
	"flashextract/internal/tokens"
)

// Document is a text file.
type Document struct {
	// Text is the full file content.
	Text string

	// lines holds the whole file's lines (linesIn), split on first use.
	linesOnce sync.Once
	lines     []Region

	// cache holds the whole-document token boundaries and regex-pair
	// position sequences of Text; program execution and the learners share
	// it across candidates and refinement iterations.
	cache *tokens.Cache
}

// NewDocument creates a text document.
func NewDocument(text string) *Document {
	return &Document{Text: text, cache: tokens.NewCache(text)}
}

// EvalCache returns the document's evaluation cache.
func (d *Document) EvalCache() *tokens.Cache { return d.cache }

// CacheStats reports the evaluation cache's counters (engine.CacheStatser).
func (d *Document) CacheStats() engine.CacheStats {
	s := d.cache.Stats()
	return engine.CacheStats{Hits: s.Hits, Misses: s.Misses, Entries: s.Entries, ApproxBytes: s.ApproxBytes}
}

// WholeRegion returns the region covering the entire file.
func (d *Document) WholeRegion() region.Region {
	return Region{Doc: d, Start: 0, End: len(d.Text)}
}

// Language returns the Ltext DSL, Language().
func (d *Document) Language() engine.Language { return Language() }

// Language returns the Ltext DSL, which holds no state: every document
// of the package shares it.
func Language() engine.Language { return lang{} }

// Region returns the region of d spanning [start, end). It panics on an
// invalid range.
func (d *Document) Region(start, end int) Region {
	if start < 0 || end > len(d.Text) || start > end {
		panic(fmt.Sprintf("textlang: invalid region [%d,%d) for document of length %d", start, end, len(d.Text)))
	}
	return Region{Doc: d, Start: start, End: end}
}

// FindRegion returns the region of the n-th occurrence (0-based) of sub in
// the document, or ok=false. It is a convenience for writing examples.
func (d *Document) FindRegion(sub string, n int) (Region, bool) {
	from := 0
	for i := 0; ; i++ {
		j := indexFrom(d.Text, sub, from)
		if j < 0 {
			return Region{}, false
		}
		if i == n {
			return d.Region(j, j+len(sub)), true
		}
		from = j + 1
	}
}

func indexFrom(s, sub string, from int) int {
	if from < 0 || from > len(s) {
		return -1
	}
	j := strings.Index(s[from:], sub)
	if j < 0 {
		return -1
	}
	return from + j
}

// Region is a pair of character positions in a text document (Def. 2): all
// characters in [Start, End).
type Region struct {
	Doc        *Document
	Start, End int
}

var (
	_ region.Region  = Region{}
	_ poslang.Region = Region{}
)

// Contains reports nesting (including equality) within the same document.
func (r Region) Contains(other region.Region) bool {
	o, ok := other.(Region)
	return ok && o.Doc == r.Doc && r.Start <= o.Start && o.End <= r.End
}

// Overlaps reports whether the two regions share characters.
func (r Region) Overlaps(other region.Region) bool {
	o, ok := other.(Region)
	return ok && o.Doc == r.Doc && r.Start < o.End && o.Start < r.End
}

// Interval exposes the region as a half-open interval of its document
// (core.Interval): region equality is exactly document+endpoint equality
// and engine.RegionConflict is exactly strict intersection within one
// document, so PreferNonOverlapping may use the O(n log n) sweep.
func (r Region) Interval() (space any, start, end int) {
	return r.Doc, r.Start, r.End
}

// Less orders regions by start position; at equal starts the larger region
// comes first (outer before inner).
func (r Region) Less(other region.Region) bool {
	o := other.(Region)
	if r.Start != o.Start {
		return r.Start < o.Start
	}
	return r.End > o.End
}

// Value returns the text of the region.
func (r Region) Value() string { return r.Doc.Text[r.Start:r.End] }

// SourceSpan reports the region's raw byte range: slicing the document
// text at [Start, End) reproduces Value.
func (r Region) SourceSpan() region.SourceSpan {
	return region.SourceSpan{Space: "bytes", Start: r.Start, End: r.End}
}

func (r Region) String() string { return fmt.Sprintf("[%d,%d)", r.Start, r.End) }

// Cache returns the document's evaluation cache. With TextRange and Sub,
// it is how the position sublanguage reads a region (poslang.Region).
func (r Region) Cache() *tokens.Cache { return r.Doc.cache }

// TextRange returns [Start, End).
func (r Region) TextRange() (lo, hi int) { return r.Start, r.End }

// Sub returns the region [lo, hi) of r's document.
func (r Region) Sub(lo, hi int) core.Value { return Region{Doc: r.Doc, Start: lo, End: hi} }

// linesIn splits a region into its lines (split(R0, '\n')): the segments
// between newline characters, clipped to the region. Interior empty lines
// are kept; the empty segment after a trailing newline is dropped. The
// whole file's lines, which every ⊥-relative candidate and the Pred*/Succ*
// predicates read, are split once and shared; any other region is split on
// each call.
func linesIn(r Region) []Region {
	d := r.Doc
	if r.Start == 0 && r.End == len(d.Text) {
		d.linesOnce.Do(func() { d.lines = splitRegion(r) })
		return d.lines
	}
	return splitRegion(r)
}

// splitRegion splits r into its lines as linesIn describes.
func splitRegion(r Region) []Region {
	text := r.Value()
	var out []Region
	start := 0
	for i := 0; i <= len(text); i++ {
		if i < len(text) && text[i] != '\n' {
			continue
		}
		if i == len(text) && start == i && len(out) > 0 {
			break // trailing newline: no final empty line
		}
		out = append(out, Region{Doc: r.Doc, Start: r.Start + start, End: r.Start + i})
		start = i + 1
	}
	return out
}

// lineContaining returns the line among lines that fully contains
// [start, end), or ok=false (e.g. for multi-line subregions).
func lineContaining(lines []Region, start, end int) (Region, bool) {
	for _, l := range lines {
		if l.Start <= start && end <= l.End {
			return l, true
		}
	}
	return Region{}, false
}

// Span returns the minimal region covering a and b, enabling bottom-up
// structure inference (see engine.Spanner).
func (d *Document) Span(a, b region.Region) (region.Region, error) {
	ar, ok1 := a.(Region)
	br, ok2 := b.(Region)
	if !ok1 || !ok2 || ar.Doc != d || br.Doc != d {
		return nil, fmt.Errorf("textlang: Span requires two regions of this document")
	}
	out := Region{Doc: d, Start: ar.Start, End: ar.End}
	if br.Start < out.Start {
		out.Start = br.Start
	}
	if br.End > out.End {
		out.End = br.End
	}
	return out, nil
}

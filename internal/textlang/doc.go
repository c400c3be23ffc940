// Package textlang implements Ltext, the FlashExtract data-extraction DSL
// for text files (Fig. 7 of the paper), together with its learners. A
// region is a pair of character positions in the file; sequence programs
// combine line-level maps (LinesMap), position-sequence maps (StartSeqMap,
// EndSeqMap), line and position filters, and a top-level Merge; region
// programs pair two learned position attributes.
package textlang

import (
	"fmt"
	"strings"
	"sync"

	"flashextract/internal/engine"
	"flashextract/internal/region"
	"flashextract/internal/tokens"
)

// Document is a text file.
type Document struct {
	// Text is the full file content.
	Text string
	lang *lang

	mu        sync.RWMutex
	lineCache map[[2]int][]Region

	// cache memoizes token boundaries, regex-pair position sequences, and
	// learning indexes over ranges of Text; program execution and the
	// learners share it across candidates and refinement iterations.
	cache *tokens.Cache
}

// NewDocument creates a text document.
func NewDocument(text string) *Document {
	d := &Document{Text: text}
	d.lang = &lang{}
	d.cache = tokens.NewCache(text)
	return d
}

// EvalCache returns the document's evaluation cache.
func (d *Document) EvalCache() *tokens.Cache { return d.cache }

// CacheStats reports the evaluation cache's counters (engine.CacheStatser).
func (d *Document) CacheStats() engine.CacheStats {
	s := d.cache.Stats()
	return engine.CacheStats{Hits: s.Hits, Misses: s.Misses, Entries: s.Entries, Evictions: s.Evictions, ApproxBytes: s.ApproxBytes}
}

// LimitCacheBytes caps the evaluation cache's approximate resident bytes;
// the batch runtime's cache-eviction chaos site calls it.
func (d *Document) LimitCacheBytes(n int64) { d.cache.SetMaxBytes(n) }

// WholeRegion returns the region covering the entire file.
func (d *Document) WholeRegion() region.Region {
	return Region{Doc: d, Start: 0, End: len(d.Text)}
}

// Language returns the Ltext DSL.
func (d *Document) Language() engine.Language { return d.lang }

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

var _ region.Region = Region{}

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

// maxLineCacheEntries bounds the per-document line cache; on overflow
// only sub-document entries are evicted, so the hot whole-document entry
// (the input of every ⊥-relative candidate) is never lost.
const maxLineCacheEntries = 256

// linesIn splits a region into its lines (split(R0, '\n')): the segments
// between newline characters, clipped to the region. Interior empty lines
// are kept; the empty segment after a trailing newline is dropped. Line
// lists are cached on the document — predicates over the preceding and
// succeeding lines consult them once per evaluation, which would otherwise
// be quadratic in document size.
func linesIn(r Region) []Region {
	d := r.Doc
	key := [2]int{r.Start, r.End}
	d.mu.RLock()
	lines, ok := d.lineCache[key]
	d.mu.RUnlock()
	if ok {
		return lines
	}

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

	whole := [2]int{0, len(d.Text)}
	d.mu.Lock()
	if d.lineCache == nil {
		d.lineCache = map[[2]int][]Region{}
	}
	if len(d.lineCache) >= maxLineCacheEntries && key != whole {
		for k := range d.lineCache {
			if k != whole {
				delete(d.lineCache, k)
			}
		}
	}
	d.lineCache[key] = out
	d.mu.Unlock()
	return out
}

// lineContaining returns the line of r that fully contains [start, end),
// or ok=false (e.g. for multi-line subregions).
func lineContaining(r Region, start, end int) (Region, bool) {
	for _, l := range linesIn(r) {
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

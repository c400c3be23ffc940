// Package weblang implements Lweb, the FlashExtract data-extraction DSL
// for webpages (Fig. 8 of the paper), together with its learners. A leaf
// region is either an HTML node or a pair of character positions within
// the document's text content; node sequences are selected by learned
// XPath expressions (wrapper induction), and intra-node substrings reuse
// the token/regex position machinery of the text instantiation.
package weblang

import (
	"fmt"
	"strings"

	"flashextract/internal/engine"
	"flashextract/internal/htmldom"
	"flashextract/internal/region"
	"flashextract/internal/tokens"
)

// Document is a parsed webpage.
type Document struct {
	// Root is the document node of the parsed page.
	Root *htmldom.Node
	// Text is the page's global text content; span regions index into it.
	Text string
	lang *lang

	// cache memoizes token boundaries, regex-pair position sequences, and
	// learning indexes over ranges of Text (node text contents are exact
	// slices of it); program execution and the learners share it.
	cache *tokens.Cache
}

// NewDocument parses an HTML page.
func NewDocument(html string) (*Document, error) {
	root, err := htmldom.Parse(html)
	if err != nil {
		return nil, err
	}
	d := &Document{Root: root, Text: root.TextContent()}
	d.lang = &lang{}
	d.cache = tokens.NewCache(d.Text)
	return d, nil
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

// MustNewDocument is NewDocument for statically known pages.
func MustNewDocument(html string) *Document {
	d, err := NewDocument(html)
	if err != nil {
		panic(err)
	}
	return d
}

// WholeRegion returns the node region of the document root.
func (d *Document) WholeRegion() region.Region {
	return NodeRegion{Doc: d, Node: d.Root}
}

// Language returns the Lweb DSL.
func (d *Document) Language() engine.Language { return d.lang }

// NodeOf returns the node region for an HTML node of this document.
func (d *Document) NodeOf(n *htmldom.Node) NodeRegion {
	return NodeRegion{Doc: d, Node: n}
}

// FindNode returns the node region of the first descendant element
// accepted by the predicate, or ok=false.
func (d *Document) FindNode(pred func(*htmldom.Node) bool) (NodeRegion, bool) {
	n := d.Root.Find(pred)
	if n == nil {
		return NodeRegion{}, false
	}
	return NodeRegion{Doc: d, Node: n}, true
}

// FindSpan returns the span region of the n-th occurrence (0-based) of sub
// in the document text, or ok=false.
func (d *Document) FindSpan(sub string, n int) (SpanRegion, bool) {
	from := 0
	for i := 0; ; i++ {
		j := strings.Index(d.Text[from:], sub)
		if j < 0 {
			return SpanRegion{}, false
		}
		j += from
		if i == n {
			return SpanRegion{Doc: d, Start: j, End: j + len(sub)}, true
		}
		from = j + 1
	}
}

// NodeRegion is a region denoting an HTML node.
type NodeRegion struct {
	Doc  *Document
	Node *htmldom.Node
}

var _ region.Region = NodeRegion{}

// textRange returns the global text range of any weblang region.
func textRange(r region.Region) (doc *Document, lo, hi int, ok bool) {
	switch v := r.(type) {
	case NodeRegion:
		return v.Doc, v.Node.TextStart, v.Node.TextEnd, true
	case SpanRegion:
		return v.Doc, v.Start, v.End, true
	default:
		return nil, 0, 0, false
	}
}

// Contains reports nesting: a node contains its descendants and any span
// within its text range.
func (r NodeRegion) Contains(other region.Region) bool {
	switch o := other.(type) {
	case NodeRegion:
		return o.Doc == r.Doc && r.Node.IsAncestorOf(o.Node)
	case SpanRegion:
		return o.Doc == r.Doc && r.Node.TextStart <= o.Start && o.End <= r.Node.TextEnd
	default:
		return false
	}
}

// Overlaps reports whether the regions share document content.
func (r NodeRegion) Overlaps(other region.Region) bool {
	switch o := other.(type) {
	case NodeRegion:
		if o.Doc != r.Doc {
			return false
		}
		return r.Node.IsAncestorOf(o.Node) || o.Node.IsAncestorOf(r.Node)
	case SpanRegion:
		return o.Doc == r.Doc && r.Node.TextStart < o.End && o.Start < r.Node.TextEnd
	default:
		return false
	}
}

// Less orders regions in document order; outer regions come first.
func (r NodeRegion) Less(other region.Region) bool {
	switch o := other.(type) {
	case NodeRegion:
		return r.Node.Index < o.Node.Index
	case SpanRegion:
		if r.Node.TextStart != o.Start {
			return r.Node.TextStart < o.Start
		}
		return true // the node (outer) before a span at the same start
	default:
		return false
	}
}

// Value returns the node's text content.
func (r NodeRegion) Value() string { return r.Node.TextContent() }

// SourceSpan reports the node's range in the document's global
// text-content layer (not the raw HTML).
func (r NodeRegion) SourceSpan() region.SourceSpan {
	return region.SourceSpan{Space: "text", Start: r.Node.TextStart, End: r.Node.TextEnd}
}

func (r NodeRegion) String() string {
	return fmt.Sprintf("<%s #%d>", r.Node.Tag, r.Node.Index)
}

// SpanRegion is a region denoting a pair of character positions within the
// document's global text content.
type SpanRegion struct {
	Doc        *Document
	Start, End int
}

var _ region.Region = SpanRegion{}

// Contains reports range nesting.
func (r SpanRegion) Contains(other region.Region) bool {
	doc, lo, hi, ok := textRange(other)
	return ok && doc == r.Doc && r.Start <= lo && hi <= r.End
}

// Overlaps reports range intersection.
func (r SpanRegion) Overlaps(other region.Region) bool {
	doc, lo, hi, ok := textRange(other)
	return ok && doc == r.Doc && r.Start < hi && lo < r.End
}

// Interval exposes the span as a half-open interval of the document's
// global text (core.Interval): span equality is document+endpoint equality
// and engine.RegionConflict between spans is strict range intersection, so
// all-span sequences get the O(n log n) overlap sweep. NodeRegion must not
// implement this — distinct nested nodes can share one text range yet
// overlap — and mixed node/span outputs therefore keep the exact pairwise
// check.
func (r SpanRegion) Interval() (space any, start, end int) {
	return r.Doc, r.Start, r.End
}

// Less orders spans by text position; larger spans first at equal starts.
func (r SpanRegion) Less(other region.Region) bool {
	switch o := other.(type) {
	case SpanRegion:
		if r.Start != o.Start {
			return r.Start < o.Start
		}
		return r.End > o.End
	case NodeRegion:
		return r.Start < o.Node.TextStart
	default:
		return false
	}
}

// Value returns the text of the span.
func (r SpanRegion) Value() string { return r.Doc.Text[r.Start:r.End] }

// SourceSpan reports the span's range in the document's global
// text-content layer: slicing Doc.Text at [Start, End) reproduces Value.
func (r SpanRegion) SourceSpan() region.SourceSpan {
	return region.SourceSpan{Space: "text", Start: r.Start, End: r.End}
}

func (r SpanRegion) String() string { return fmt.Sprintf("txt[%d,%d)", r.Start, r.End) }

// deepestNodeContaining returns the deepest element node whose text range
// contains [lo, hi).
func deepestNodeContaining(d *Document, lo, hi int) *htmldom.Node {
	best := d.Root
	cur := d.Root
	for {
		descended := false
		for _, c := range cur.Children {
			if c.Type != htmldom.ElementNode {
				continue
			}
			if c.TextStart <= lo && hi <= c.TextEnd {
				cur = c
				best = c
				descended = true
				break
			}
		}
		if !descended {
			return best
		}
	}
}

// Span returns the deepest element node whose text content covers both
// regions, enabling bottom-up structure inference (see engine.Spanner):
// the common container of a title node and its author spans is the
// publication element.
func (d *Document) Span(a, b region.Region) (region.Region, error) {
	da, lo1, hi1, ok1 := textRange(a)
	db, lo2, hi2, ok2 := textRange(b)
	if !ok1 || !ok2 || da != d || db != d {
		return nil, fmt.Errorf("weblang: Span requires two regions of this document")
	}
	lo, hi := lo1, hi1
	if lo2 < lo {
		lo = lo2
	}
	if hi2 > hi {
		hi = hi2
	}
	node := deepestNodeContaining(d, lo, hi)
	// Nodes are only comparable containers when they are elements; for
	// node inputs also require ancestry so empty-text nodes stay covered.
	if na, isNode := a.(NodeRegion); isNode {
		if nb, isNode2 := b.(NodeRegion); isNode2 {
			anc := na.Node
			for anc != nil && !anc.IsAncestorOf(nb.Node) {
				anc = anc.Parent
			}
			if anc != nil && node.IsAncestorOf(anc) {
				node = anc
			}
		}
	}
	return NodeRegion{Doc: d, Node: node}, nil
}

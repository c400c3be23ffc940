// Package region defines the document-independent notion of a region
// (Def. 2 of the FlashExtract paper): a two-dimensional portion of a
// document's visualization layer that a user can highlight. Concrete
// representations live in the domain packages — a pair of character
// positions for text files, an HTML node or intra-node span for webpages,
// and a cell or cell pair for spreadsheets.
package region

// Region is a highlightable portion of a document. Implementations must be
// comparable Go values (or implement core.Equaler) so the synthesis
// framework can test region equality.
type Region interface {
	// Contains reports whether other is nested inside (or equal to) the
	// receiver. It is the nestedness API assumed by the paper's Fill
	// semantics.
	Contains(other Region) bool
	// Overlaps reports whether the receiver and other share any part of the
	// document.
	Overlaps(other Region) bool
	// Less orders regions by their location in the document (reading
	// order). It is only called on regions of the same document.
	Less(other Region) bool
	// Value returns the text value of the region (meaningful for leaf
	// regions).
	Value() string
	// String returns a compact human-readable description.
	String() string
}

// Sort orders regions in document order using insertion sort. It sorts
// whole run outputs (every region a field program extracts from a
// document), and stays linear there only because that input already
// comes in document order.
func Sort(rs []Region) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j].Less(rs[j-1]); j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

// Subregions returns the ordered subset of candidates nested inside r
// (the Subregions helper of Fig. 5).
func Subregions(r Region, candidates []Region) []Region {
	var out []Region
	for _, c := range candidates {
		if r.Contains(c) {
			out = append(out, c)
		}
	}
	Sort(out)
	return out
}

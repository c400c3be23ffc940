package engine

import (
	"fmt"
	"sort"

	"flashextract/internal/region"
	"flashextract/internal/schema"
)

// Highlighting is a collection of colored regions of a document (Def. 3):
// a map from a field color to all regions of that color.
type Highlighting map[string][]region.Region

// Clone returns a deep copy of the highlighting.
func (cr Highlighting) Clone() Highlighting {
	out := make(Highlighting, len(cr))
	for c, rs := range cr {
		out[c] = append([]region.Region(nil), rs...)
	}
	return out
}

// Add adds regions of the given color, keeping the color's regions in
// document order and dropping exact duplicates. With no regions it adds
// no color: a present but empty ancestor color would leave every region
// of its descendants nested in no region (Def. 3 (2)).
func (cr Highlighting) Add(color string, rs ...region.Region) {
	if len(rs) > 0 && cr.addIntervals(color, cr[color], rs) {
		return
	}
	for _, r := range rs {
		if containsRegion(cr[color], r) {
			continue
		}
		cr[color] = append(cr[color], r)
	}
	region.Sort(cr[color])
}

func containsRegion(rs []region.Region, r region.Region) bool {
	for _, x := range rs {
		if x == r {
			return true
		}
	}
	return false
}

// ConsistentWith checks the four conditions of Def. 3: (1) any two regions
// either do not overlap or are nested; (2) every region of a field is
// nested inside some region of each of its highlighted ancestors; (3) at
// most one region of a field lies inside each region of a
// structure-ancestor; (4) leaf region values have the declared leaf type.
// Colors not present in the highlighting are not constrained (fields may
// be highlighted in any order).
//
// Regions that implement core.Interval in one space are checked on the
// interval path in O(n log n); when it finds a violation, and for every
// other region type, the pairwise reference loops decide and name the
// first offending region or pair.
func (cr Highlighting) ConsistentWith(m *schema.Schema) error {
	if ok, applies := cr.intervalConsistent(m); ok && applies {
		return nil
	}
	return cr.checkPairwise(m)
}

// consistent reports whether ConsistentWith(m) == nil without formatting
// an error on the interval path: the yes/no decision of candidate
// validation.
func (cr Highlighting) consistent(m *schema.Schema) bool {
	if ok, applies := cr.intervalConsistent(m); applies {
		return ok
	}
	return cr.checkPairwise(m) == nil
}

// checkPairwise is ConsistentWith's reference path: pairwise loops over
// the regions, quadratic in their number.
func (cr Highlighting) checkPairwise(m *schema.Schema) error {
	// (1) pairwise nesting/disjointness across all colors. Colors are
	// visited in schema order (then any extras sorted), never in map
	// order: the first overlapping pair found decides the error message,
	// and batch output promises byte-identical records across runs.
	type colored struct {
		color string
		r     region.Region
	}
	var all []colored
	addColor := func(c string) {
		for _, r := range cr[c] {
			all = append(all, colored{c, r})
		}
	}
	seen := make(map[string]bool, len(cr))
	for _, fi := range m.Fields() {
		if _, ok := cr[fi.Color()]; ok && !seen[fi.Color()] {
			seen[fi.Color()] = true
			addColor(fi.Color())
		}
	}
	var extra []string
	for c := range cr {
		if !seen[c] {
			extra = append(extra, c)
		}
	}
	sort.Strings(extra)
	for _, c := range extra {
		addColor(c)
	}
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			a, b := all[i], all[j]
			if a.r == b.r {
				continue
			}
			if a.r.Overlaps(b.r) && !a.r.Contains(b.r) && !b.r.Contains(a.r) {
				return fmt.Errorf("engine: regions %s [%s] and %s [%s] overlap without nesting",
					a.r, a.color, b.r, b.color)
			}
		}
	}
	// (2), (3), (4) per schema relations.
	for _, fi := range m.Fields() {
		rs, ok := cr[fi.Color()]
		if !ok {
			continue
		}
		if fi.Field.IsLeaf() {
			for _, r := range rs {
				if !fi.Field.Leaf.ValidValue(r.Value()) {
					return fmt.Errorf("engine: value %q of %s-region %s is not of type %s",
						r.Value(), fi.Color(), r, fi.Field.Leaf)
				}
			}
		}
		for _, anc := range fi.Ancestors() {
			if anc == nil {
				continue
			}
			ancRegions, ok := cr[anc.Color()]
			if !ok {
				continue
			}
			for _, r := range rs {
				n := 0
				for _, ar := range ancRegions {
					if ar.Contains(r) {
						n++
					}
				}
				if n == 0 {
					return fmt.Errorf("engine: %s-region %s is not nested in any %s-region",
						fi.Color(), r, anc.Color())
				}
			}
			if !fi.IsSequenceAncestor(anc) {
				// structure-ancestor: at most one region per ancestor region
				for _, ar := range ancRegions {
					n := 0
					for _, r := range rs {
						if ar.Contains(r) {
							n++
						}
					}
					if n > 1 {
						return fmt.Errorf("engine: %d %s-regions inside structure-ancestor %s-region %s (want at most 1)",
							n, fi.Color(), anc.Color(), ar)
					}
				}
			}
		}
	}
	return nil
}

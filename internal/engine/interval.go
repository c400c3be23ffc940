package engine

import (
	"cmp"
	"slices"
	"sort"

	"flashextract/internal/core"
	"flashextract/internal/region"
	"flashextract/internal/schema"
)

// The interval path of Algorithm 1's bookkeeping. When every region in
// play implements core.Interval in one coordinate space (text regions, web
// text spans), nesting, overlap and document order are comparisons of
// [start, end) pairs, so Def. 3 is a sort and a sweep, and Fig. 5's
// Subregions is a binary search, where the pairwise loops of
// highlight.go and region.Subregions are quadratic in the number of
// regions. Those loops stay the reference: they serve every other region
// type (DOM nodes, sheet cells and rectangles, mixed node/span lists) and
// format ConsistentWith's error messages.

// ival is a region that implements core.Interval, with its endpoints.
type ival struct {
	start, end int
	r          region.Region
}

// cmpIval orders intervals as Less orders core.Interval regions of one
// space: by start ascending, then end descending (outer first). Equal
// endpoints mean equal regions.
func cmpIval(a, b ival) int {
	if c := cmp.Compare(a.start, b.start); c != 0 {
		return c
	}
	return cmp.Compare(b.end, a.end)
}

// space is the coordinate space shared by the core.Interval regions seen
// so far; the zero value has seen none.
type space struct {
	id  any
	set bool
}

// of returns r as an interval, or false when r does not implement
// core.Interval or lies in another space than the regions seen before.
func (s *space) of(r region.Region) (ival, bool) {
	iv, ok := r.(core.Interval)
	if !ok {
		return ival{}, false
	}
	id, start, end := iv.Interval()
	if !s.set {
		s.id, s.set = id, true
	} else if id != s.id {
		return ival{}, false
	}
	return ival{start, end, r}, true
}

// holds reports whether every region of rs is an interval of s.
func (s *space) holds(rs []region.Region) bool {
	for _, r := range rs {
		if _, ok := s.of(r); !ok {
			return false
		}
	}
	return true
}

// sorted returns rs, which s holds, as intervals in document order.
func (s *space) sorted(rs []region.Region) []ival {
	out := make([]ival, len(rs))
	for i, r := range rs {
		out[i], _ = s.of(r)
	}
	slices.SortFunc(out, cmpIval)
	return out
}

// crosses reports whether two intervals of sorted overlap without nesting,
// a.start < b.start < a.end < b.end: the only way two intervals of one
// space break Def. 3 (1). open holds the ends of the chain of intervals
// enclosing the current one, innermost last.
func crosses(sorted []ival) bool {
	var open []int
	for _, v := range sorted {
		for len(open) > 0 && open[len(open)-1] <= v.start {
			open = open[:len(open)-1]
		}
		if len(open) > 0 && open[len(open)-1] < v.end {
			return true
		}
		open = append(open, v.end)
	}
	return false
}

// nextInside returns the first index j ≥ i of an interval of sorted that
// lies inside v, or -1. i must not precede v's own position in sorted
// (slices.BinarySearchFunc(sorted, v, cmpIval)), so every interval from i
// on starts inside v or after it. In a highlighting without crossing
// pairs, the only intervals it steps over start exactly at v.end.
func nextInside(sorted []ival, v ival, i int) int {
	for ; i < len(sorted) && sorted[i].start <= v.end; i++ {
		if sorted[i].end <= v.end {
			return i
		}
	}
	return -1
}

// intervalConsistent decides Def. 3 on the interval path: ok is exactly
// ConsistentWith(m) == nil. applies is false, and nothing is allocated,
// unless every region of cr implements core.Interval in one space.
func (cr Highlighting) intervalConsistent(m *schema.Schema) (ok, applies bool) {
	var sp space
	n := 0
	for _, rs := range cr {
		if !sp.holds(rs) {
			return false, false
		}
		n += len(rs)
	}
	// (1) one sweep over all colors' regions in document order.
	byColor := make(map[string][]ival, len(cr))
	all := make([]ival, 0, n)
	for c, rs := range cr {
		byColor[c] = sp.sorted(rs)
		all = append(all, byColor[c]...)
	}
	slices.SortFunc(all, cmpIval)
	if crosses(all) {
		return false, true
	}
	// (2), (3), (4) per schema relations, as in checkPairwise. With no
	// crossing pair, the regions inside an ancestor region are found by
	// binary search.
	for _, fi := range m.Fields() {
		rs, ok := byColor[fi.Color()]
		if !ok {
			continue
		}
		if fi.Field.IsLeaf() {
			for _, v := range rs {
				if !fi.Field.Leaf.ValidValue(v.r.Value()) {
					return false, true
				}
			}
		}
		for _, anc := range fi.Ancestors() {
			if anc == nil {
				continue
			}
			ars, ok := byColor[anc.Color()]
			if !ok {
				continue
			}
			// maxEnd[k] is the largest end among ars[:k+1]: v is nested in
			// some ancestor region iff one starting at or before v.start
			// ends at or after v.end.
			maxEnd := make([]int, len(ars))
			for k, a := range ars {
				maxEnd[k] = a.end
				if k > 0 && maxEnd[k-1] > a.end {
					maxEnd[k] = maxEnd[k-1]
				}
			}
			for _, v := range rs {
				k := sort.Search(len(ars), func(k int) bool { return ars[k].start > v.start })
				if k == 0 || maxEnd[k-1] < v.end {
					return false, true
				}
			}
			if !fi.IsSequenceAncestor(anc) {
				for _, a := range ars {
					i, _ := slices.BinarySearchFunc(rs, a, cmpIval)
					if i = nextInside(rs, a, i); i >= 0 && nextInside(rs, a, i+1) >= 0 {
						return false, true
					}
				}
			}
		}
	}
	return true, true
}

// addIntervals is Add on the interval path, in one pass over old and rs
// sorted together: an added region equal to the one before it is dropped,
// and old regions sort ahead of equal added ones, so exactly the added
// duplicates go. It reports false, having allocated nothing, unless every
// region of old and rs implements core.Interval in one space.
func (cr Highlighting) addIntervals(color string, old, rs []region.Region) bool {
	var sp space
	if !sp.holds(old) || !sp.holds(rs) {
		return false
	}
	// i numbers old's regions, then rs's: added ones have i ≥ len(old).
	type entry struct {
		v ival
		i int
	}
	all := make([]entry, 0, len(old)+len(rs))
	for _, list := range [2][]region.Region{old, rs} {
		for _, r := range list {
			v, _ := sp.of(r)
			all = append(all, entry{v, len(all)})
		}
	}
	slices.SortFunc(all, func(a, b entry) int {
		if c := cmpIval(a.v, b.v); c != 0 {
			return c
		}
		return cmp.Compare(a.i, b.i)
	})
	out := make([]region.Region, 0, len(all))
	for k, e := range all {
		if e.i >= len(old) && k > 0 && cmpIval(all[k-1].v, e.v) == 0 {
			continue
		}
		out = append(out, e.v.r)
	}
	cr[color] = out
	return true
}

// filler answers Fill's Subregions lookups. On the interval path it
// builds each color's regions in document order once per Fill call and
// answers each lookup by binary search; any other lookup takes the
// reference scan, region.Subregions.
type filler struct {
	cr    Highlighting
	sp    space
	index map[string][]ival // nil entry: the color takes the reference scan
}

// subregions returns the regions of the given color nested inside r, in
// document order (the Subregions helper of Fig. 5).
func (f *filler) subregions(r region.Region, color string) []region.Region {
	sorted, v, ok := f.lookup(r, color)
	if !ok {
		return region.Subregions(r, f.cr[color])
	}
	var out []region.Region
	i, _ := slices.BinarySearchFunc(sorted, v, cmpIval)
	for i = nextInside(sorted, v, i); i >= 0; i = nextInside(sorted, v, i+1) {
		out = append(out, sorted[i].r)
	}
	return out
}

// lookup returns the color's regions in document order and r as an
// interval, or false when r or any region of the color is not an interval
// of f's space.
func (f *filler) lookup(r region.Region, color string) ([]ival, ival, bool) {
	v, ok := f.sp.of(r)
	if !ok {
		return nil, ival{}, false
	}
	sorted, built := f.index[color]
	if !built {
		if f.index == nil {
			f.index = map[string][]ival{}
		}
		if rs := f.cr[color]; f.sp.holds(rs) {
			sorted = f.sp.sorted(rs)
		}
		f.index[color] = sorted
	}
	return sorted, v, sorted != nil
}

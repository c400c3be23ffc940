package region

import (
	"fmt"
	"testing"
	"testing/quick"
)

// ival is a simple interval region for testing the package helpers.
type ival struct{ s, e int }

func (r ival) Contains(other Region) bool {
	o := other.(ival)
	return r.s <= o.s && o.e <= r.e
}

func (r ival) Overlaps(other Region) bool {
	o := other.(ival)
	return r.s < o.e && o.s < r.e
}

func (r ival) Less(other Region) bool {
	o := other.(ival)
	if r.s != o.s {
		return r.s < o.s
	}
	return r.e > o.e
}

func (r ival) Value() string  { return fmt.Sprintf("%d..%d", r.s, r.e) }
func (r ival) String() string { return r.Value() }

func TestSort(t *testing.T) {
	rs := []Region{ival{4, 6}, ival{0, 2}, ival{0, 9}, ival{3, 3}}
	Sort(rs)
	want := []Region{ival{0, 9}, ival{0, 2}, ival{3, 3}, ival{4, 6}}
	for i := range want {
		if rs[i] != want[i] {
			t.Fatalf("Sort = %v", rs)
		}
	}
}

func TestSortStability(t *testing.T) {
	// Regions that are not Less than each other keep insertion order.
	a := ival{1, 4}
	rs := []Region{a, a, ival{0, 1}}
	Sort(rs)
	if rs[0] != Region(ival{0, 1}) || rs[1] != Region(a) {
		t.Fatalf("Sort = %v", rs)
	}
}

func TestSubregions(t *testing.T) {
	outer := ival{0, 10}
	cands := []Region{ival{12, 14}, ival{8, 10}, ival{0, 3}, ival{5, 12}}
	got := Subregions(outer, cands)
	if len(got) != 2 || got[0] != Region(ival{0, 3}) || got[1] != Region(ival{8, 10}) {
		t.Fatalf("Subregions = %v", got)
	}
}

func TestSortProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		var rs []Region
		for i := 0; i+1 < len(raw); i += 2 {
			s := int(raw[i] % 50)
			e := s + int(raw[i+1]%20)
			rs = append(rs, ival{s, e})
		}
		Sort(rs)
		for i := 1; i < len(rs); i++ {
			if rs[i].Less(rs[i-1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

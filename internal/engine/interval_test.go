package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"flashextract/internal/region"
	"flashextract/internal/schema"
)

// ispan is span with core.Interval: highlightings of ispans take the
// interval path, highlightings of spans the pairwise reference path.
type ispan span

func (r ispan) Contains(other region.Region) bool {
	o, ok := other.(ispan)
	return ok && span(r).Contains(span(o))
}

func (r ispan) Overlaps(other region.Region) bool {
	o, ok := other.(ispan)
	return ok && span(r).Overlaps(span(o))
}

func (r ispan) Less(other region.Region) bool { return span(r).Less(span(other.(ispan))) }
func (r ispan) Value() string                 { return span(r).Value() }
func (r ispan) String() string                { return span(r).String() }

func (r ispan) Interval() (space any, start, end int) { return r.doc, r.s, r.e }

// spanKinds builds regions of fakeText on each path.
var spanKinds = []struct {
	name string
	mk   func(s, e int) region.Region
}{
	{"pairwise", func(s, e int) region.Region { return span{fakeText, s, e} }},
	{"interval", func(s, e int) region.Region { return ispan{fakeText, s, e} }},
}

func TestFillSubregionLookup(t *testing.T) {
	for _, k := range spanKinds {
		t.Run(k.name, func(t *testing.T) {
			outer := k.mk(0, 10)
			// Fig. 5's Subregion: the first nested region, or nil.
			lookup := func(cands ...region.Region) region.Region {
				f := &filler{cr: Highlighting{"c": cands}}
				if subs := f.subregions(outer, "c"); len(subs) > 0 {
					return subs[0]
				}
				return nil
			}
			if got := lookup(k.mk(11, 12)); got != nil {
				t.Fatalf("subregion = %v, want nil", got)
			}
			if got := lookup(k.mk(4, 6)); got != k.mk(4, 6) {
				t.Fatalf("subregion = %v", got)
			}
			// several nested: the first in document order
			if got := lookup(k.mk(7, 8), k.mk(1, 2)); got != k.mk(1, 2) {
				t.Fatalf("subregion = %v", got)
			}
			// a region starting at the outer end is outside unless empty
			if got := lookup(k.mk(10, 12), k.mk(10, 11)); got != nil {
				t.Fatalf("subregion = %v, want nil", got)
			}
			if got := lookup(k.mk(10, 12), k.mk(10, 11), k.mk(10, 10)); got != k.mk(10, 10) {
				t.Fatalf("subregion = %v", got)
			}
			f := &filler{cr: Highlighting{"c": {k.mk(12, 14), k.mk(8, 10), k.mk(0, 3), k.mk(5, 12), k.mk(0, 10)}}}
			if got := fmt.Sprint(f.subregions(outer, "c")); got != "[[0,10) [0,3) [8,10)]" {
				t.Fatalf("subregions = %s", got)
			}
		})
	}
}

// TestIntervalPathAllocatesNothingWhenNotApplicable pins that regions
// without core.Interval pay no allocation for the interval path's
// applicability check.
func TestIntervalPathAllocatesNothingWhenNotApplicable(t *testing.T) {
	m := schema.MustParse(rowSchema)
	cr := Highlighting{}
	cr.Add("row", span{fakeText, 0, 7}, span{fakeText, 8, 15})
	cr.Add("a", span{fakeText, 0, 5})
	allocs := testing.AllocsPerRun(100, func() {
		if _, applies := cr.intervalConsistent(m); applies {
			t.Fatal("interval path applied to spans without core.Interval")
		}
		if cr.addIntervals("a", cr["a"], cr["row"]) {
			t.Fatal("interval Add applied to spans without core.Interval")
		}
	})
	if allocs != 0 {
		t.Fatalf("inapplicable interval path allocated %.0f times per run", allocs)
	}
}

// ---- differential test of the interval path against the reference ----

// highlightShapes are the schema shapes the differential test draws from:
// a sequence of structs, a struct of sequences, a sequence inside a
// structure ancestor, and nested structs.
var highlightShapes = []string{
	`Seq([row] Struct(Name: [a] String, Value: [b] Int))`,
	`Struct(Names: Seq([a] String), Values: Seq([b] Int))`,
	`Struct(Title: [t] String, Body: [blk] Struct(Items: Seq([it] Int)))`,
	`Seq([row] Struct(Who: [p] Struct(First: [f] String, Last: [l] Int), Age: [g] Int))`,
}

// chooser is the source of the generator's choices: a seeded
// *rand.Rand in the property test, the fuzzer's bytes in the fuzz target.
type chooser interface{ Intn(n int) int }

// byteChooser reads choices from fuzzer bytes, then zeros.
type byteChooser struct{ b []byte }

func (c *byteChooser) Intn(n int) int {
	if len(c.b) == 0 {
		return 0
	}
	v := int(c.b[0])
	c.b = c.b[1:]
	return v % n
}

// addCall is one Highlighting.Add call, or with set, an assignment of
// the color's regions that bypasses Add.
type addCall struct {
	color string
	spans [][2]int
	set   bool
}

// genHighlighting draws a document and a sequence of Add calls over one of
// highlightShapes. Regions are laid out top-down as a mostly consistent
// nesting and then perturbed: crossing endpoints, empty regions,
// duplicates within and across colors, same-color nesting, a color outside
// the schema, Add calls with no regions, and colors split over two
// unsorted Add calls, the first sometimes an assignment that keeps its
// duplicates.
func genHighlighting(c chooser) (*schema.Schema, string, []addCall) {
	m := schema.MustParse(highlightShapes[c.Intn(len(highlightShapes))])
	const alphabet = "0123456789 -ab"
	var doc strings.Builder
	for n := 8 + c.Intn(40); n > 0; n-- {
		doc.WriteByte(alphabet[c.Intn(len(alphabet))])
	}
	text := doc.String()
	randSub := func(lo, hi int) [2]int {
		s := lo + c.Intn(hi-lo+1)
		return [2]int{s, s + c.Intn(hi-s+1)}
	}
	byColor := map[string][][2]int{}
	var all [][2]int
	for _, fi := range m.Fields() {
		if c.Intn(8) == 0 {
			continue // color left out
		}
		parents := [][2]int{{0, len(text)}}
		if fi.Parent != nil {
			parents = byColor[fi.Parent.Color()]
		}
		var rs [][2]int
		for _, p := range parents {
			// Up to three disjoint pieces of the parent, in order.
			lo := p[0]
			for k := c.Intn(4); k > 0 && lo <= p[1]; k-- {
				r := randSub(lo, p[1])
				rs = append(rs, r)
				lo = r[1] + 1
			}
		}
		for i := range rs {
			switch c.Intn(16) {
			case 0: // crossing endpoint
				rs[i][1] = min(len(text), rs[i][1]+1+c.Intn(3))
			case 1:
				rs[i][0] = max(0, rs[i][0]-1-c.Intn(3))
			}
		}
		if len(rs) > 0 && c.Intn(6) == 0 { // same-color nesting
			p := rs[c.Intn(len(rs))]
			rs = append(rs, randSub(p[0], p[1]))
		}
		if c.Intn(6) == 0 { // empty region
			s := c.Intn(len(text) + 1)
			rs = append(rs, [2]int{s, s})
		}
		if len(rs) > 0 && c.Intn(6) == 0 { // duplicate within the color
			rs = append(rs, rs[c.Intn(len(rs))])
		}
		if len(all) > 0 && c.Intn(8) == 0 { // duplicate across colors
			rs = append(rs, all[c.Intn(len(all))])
		}
		byColor[fi.Color()] = rs
		all = append(all, rs...)
	}
	if c.Intn(4) == 0 { // a color outside the schema
		for k := 1 + c.Intn(3); k > 0; k-- {
			byColor["zz"] = append(byColor["zz"], randSub(0, len(text)))
		}
	}
	var calls []addCall
	for _, color := range append(colorsOf(m), "zz") {
		rs, ok := byColor[color]
		if !ok {
			if c.Intn(4) == 0 {
				calls = append(calls, addCall{color: color})
			}
			continue
		}
		for i := len(rs) - 1; i > 0; i-- { // unsorted within a call
			j := c.Intn(i + 1)
			rs[i], rs[j] = rs[j], rs[i]
		}
		cut := c.Intn(len(rs) + 1)
		first := addCall{color: color, spans: rs[:cut]}
		if cut > 0 && c.Intn(8) == 0 {
			first.set = true
			first.spans = append(first.spans[:cut:cut], rs[c.Intn(cut)])
		}
		calls = append(calls, first, addCall{color: color, spans: rs[cut:]})
	}
	return m, text, calls
}

func colorsOf(m *schema.Schema) []string {
	var out []string
	for _, fi := range m.Fields() {
		out = append(out, fi.Color())
	}
	return out
}

// buildHighlighting replays the Add calls with regions made by mk.
func buildHighlighting(calls []addCall, mk func(s, e int) region.Region) Highlighting {
	cr := Highlighting{}
	for _, call := range calls {
		rs := make([]region.Region, len(call.spans))
		for i, sp := range call.spans {
			rs[i] = mk(sp[0], sp[1])
		}
		if call.set {
			cr[call.color] = rs
			continue
		}
		cr.Add(call.color, rs...)
	}
	return cr
}

// dumpHighlighting renders every color's regions, colors sorted.
func dumpHighlighting(cr Highlighting) string {
	colors := make([]string, 0, len(cr))
	for c := range cr {
		colors = append(colors, c)
	}
	sort.Strings(colors)
	var b strings.Builder
	for _, c := range colors {
		fmt.Fprintf(&b, "%s=%v ", c, cr[c])
	}
	return b.String()
}

// dumpInstance renders an instance with each leaf's region.
func dumpInstance(in *Instance) string {
	var b strings.Builder
	var walk func(in *Instance)
	walk = func(in *Instance) {
		switch {
		case in.IsNull():
			b.WriteString("⊥")
		case in.Kind == LeafInstance:
			fmt.Fprintf(&b, "%q@%s:%s", in.Text, in.Region, in.Type)
		case in.Kind == StructInstance:
			b.WriteString("{")
			for _, e := range in.Elements {
				b.WriteString(e.Name + ":")
				walk(e.Value)
				b.WriteString(" ")
			}
			b.WriteString("}")
		default:
			b.WriteString("[")
			for _, it := range in.Items {
				walk(it)
				b.WriteString(" ")
			}
			b.WriteString("]")
		}
	}
	walk(in)
	return b.String()
}

// comparePaths checks that the interval path and the pairwise reference
// agree on Add, ConsistentWith and Fill for one generated input, and
// reports whether the highlighting is consistent.
func comparePaths(t *testing.T, m *schema.Schema, text string, calls []addCall) bool {
	t.Helper()
	ref := buildHighlighting(calls, func(s, e int) region.Region { return span{text, s, e} })
	got := buildHighlighting(calls, func(s, e int) region.Region { return ispan{text, s, e} })
	if r, g := dumpHighlighting(ref), dumpHighlighting(got); r != g {
		t.Fatalf("Add: interval path %s, reference %s\ncalls %v", g, r, calls)
	}
	errString := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	refErr := ref.ConsistentWith(m)
	if r, g := errString(refErr), errString(got.ConsistentWith(m)); r != g {
		t.Fatalf("ConsistentWith: interval path %q, reference %q\ntext %q schema %s\n%s", g, r, text, m, dumpHighlighting(ref))
	}
	ok, applies := got.intervalConsistent(m)
	if !applies {
		t.Fatal("interval path did not apply to ispans")
	}
	if ok != (refErr == nil) || got.consistent(m) != ok {
		t.Fatalf("interval decision %v, reference error %v", ok, refErr)
	}
	refInst := Fill(m, ref, span{text, 0, len(text)})
	gotInst := Fill(m, got, ispan{text, 0, len(text)})
	if r, g := dumpInstance(refInst), dumpInstance(gotInst); r != g {
		t.Fatalf("Fill: interval path %s, reference %s\ntext %q schema %s\n%s", g, r, text, m, dumpHighlighting(ref))
	}
	return ok
}

func TestIntervalPathMatchesReference(t *testing.T) {
	cases := 20000
	if testing.Short() {
		cases = 2000
	}
	inconsistent := 0
	for seed := 1; seed <= cases; seed++ {
		m, text, calls := genHighlighting(rand.New(rand.NewSource(int64(seed))))
		if !comparePaths(t, m, text, calls) {
			inconsistent++
		}
	}
	// Both outcomes must be well represented for the comparison to mean
	// anything.
	if inconsistent < cases/5 || inconsistent > cases*4/5 {
		t.Fatalf("%d of %d generated highlightings inconsistent; the generator is lopsided", inconsistent, cases)
	}
	t.Logf("%d of %d generated highlightings inconsistent", inconsistent, cases)
}

func FuzzHighlighting(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		b := make([]byte, 256)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, text, calls := genHighlighting(&byteChooser{b})
		comparePaths(t, m, text, calls)
	})
}

// ---- growth law of the run path (Algorithm 1's bookkeeping) ----

// regionCalls counts calls to countSpan's nesting, overlap, order and
// interval methods; the growth-law test is single-goroutine.
var regionCalls int

// countSpan is an interval region that counts the calls made to it.
type countSpan struct {
	doc  *string
	s, e int
}

func (r countSpan) Contains(other region.Region) bool {
	regionCalls++
	o, ok := other.(countSpan)
	return ok && o.doc == r.doc && r.s <= o.s && o.e <= r.e
}

func (r countSpan) Overlaps(other region.Region) bool {
	regionCalls++
	o, ok := other.(countSpan)
	return ok && o.doc == r.doc && r.s < o.e && o.s < r.e
}

func (r countSpan) Less(other region.Region) bool {
	regionCalls++
	o := other.(countSpan)
	if r.s != o.s {
		return r.s < o.s
	}
	return r.e > o.e
}

func (r countSpan) Interval() (space any, start, end int) {
	regionCalls++
	return r.doc, r.s, r.e
}

func (r countSpan) Value() string  { return (*r.doc)[r.s:r.e] }
func (r countSpan) String() string { return fmt.Sprintf("[%d,%d)", r.s, r.e) }

// runPathCalls counts the region-method calls that Add, ConsistentWith and
// Fill make on a rowSchema highlighting of the given number of rows.
func runPathCalls(t *testing.T, rows int) int {
	var b strings.Builder
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, "name%d %d\n", i, i)
	}
	text := b.String()
	var row, a, v []region.Region
	start := 0
	for start < len(text) {
		end := start + strings.IndexByte(text[start:], '\n')
		sp := start + strings.IndexByte(text[start:], ' ')
		row = append(row, countSpan{&text, start, end})
		a = append(a, countSpan{&text, start, sp})
		v = append(v, countSpan{&text, sp + 1, end})
		start = end + 1
	}
	m := schema.MustParse(rowSchema)
	regionCalls = 0
	cr := Highlighting{}
	cr.Add("row", row...)
	cr.Add("a", a...)
	cr.Add("b", v...)
	if err := cr.ConsistentWith(m); err != nil {
		t.Fatal(err)
	}
	inst := Fill(m, cr, countSpan{&text, 0, len(text)})
	if len(inst.Items) != rows {
		t.Fatalf("Fill returned %d rows, want %d", len(inst.Items), rows)
	}
	return regionCalls
}

// TestRunPathGrowthLaw pins that Algorithm 1's bookkeeping on interval
// regions grows about linearly in record count: each 4× step in rows may
// grow the region-method calls at most 5× (the pairwise loops grow them
// about 16×). It counts calls, not time.
func TestRunPathGrowthLaw(t *testing.T) {
	prev := runPathCalls(t, 1000)
	if prev == 0 {
		t.Fatal("no region-method calls counted")
	}
	for _, rows := range []int{4000, 16000} {
		n := runPathCalls(t, rows)
		if n > 5*prev {
			t.Fatalf("%d rows: %d region-method calls, more than 5× the %d at a quarter of the rows", rows, n, prev)
		}
		prev = n
	}
}

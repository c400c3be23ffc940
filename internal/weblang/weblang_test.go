package weblang

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"flashextract/internal/core"
	"flashextract/internal/engine"
	"flashextract/internal/htmldom"
	"flashextract/internal/poslang"
	"flashextract/internal/region"
	"flashextract/internal/textlang"
	"flashextract/internal/tokens"
)

// scholarPage mirrors the paper's Ex. 2: a publication list where each
// entry has a title and a comma-separated author list inside a single div.
const scholarPage = `<html><body>
<div id="results">
  <div class="pub">
    <a class="title">Program Synthesis A</a>
    <div class="authors">M Vaziri, S Gulwani, V Le</div>
    <span class="venue">PLDI 2014</span><span class="cites">Cited by 120</span>
  </div>
  <div class="pub">
    <a class="title">Type Systems B</a>
    <div class="authors">A One, B Two</div>
    <span class="venue">POPL 2013</span><span class="cites">Cited by 85</span>
  </div>
  <div class="pub">
    <a class="title">Verification C</a>
    <div class="authors">C Three, M Vaziri</div>
    <span class="venue">CAV 2012</span><span class="cites">Cited by 40</span>
  </div>
</div>
</body></html>`

// shopPage mirrors the SXPath benchmark tasks: product info regions,
// product name elements, price elements, and the price number substring.
const shopPage = `<html><body>
<div class="listing">
  <div class="item"><h2 class="pname">Widget</h2><div class="price">Sale: $9.99 USD</div></div>
  <div class="item"><h2 class="pname">Gadget</h2><div class="price">Sale: $19.50 USD</div></div>
  <div class="item"><h2 class="pname">Doohickey</h2><div class="price">Sale: $3.25 USD</div></div>
</div>
</body></html>`

func nodeByClassText(t *testing.T, d *Document, class, text string) NodeRegion {
	t.Helper()
	n, ok := d.FindNode(func(n *htmldom.Node) bool {
		return n.HasClass(class) && strings.Contains(n.TextContent(), text)
	})
	if !ok {
		t.Fatalf("no node with class %q containing %q", class, text)
	}
	return n
}

func extractSeq(t *testing.T, p core.Program, in region.Region) []region.Region {
	t.Helper()
	out, err := engine.ExtractSeq(p, in)
	if err != nil {
		t.Fatalf("ExtractSeq(%s): %v", p, err)
	}
	return out
}

func regionValues(rs []region.Region) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = strings.TrimSpace(r.Value())
	}
	return out
}

// ---- region mechanics ----

func TestNodeRegionContainsAndOverlap(t *testing.T) {
	d := MustNewDocument(scholarPage)
	results := nodeByClassText(t, d, "pub", "Program Synthesis A")
	title := nodeByClassText(t, d, "title", "Program Synthesis A")
	other := nodeByClassText(t, d, "pub", "Type Systems B")
	if !results.Contains(title) || title.Contains(results) {
		t.Fatal("node containment broken")
	}
	if !results.Overlaps(title) || results.Overlaps(other) {
		t.Fatal("node overlap broken")
	}
	if !results.Less(other) {
		t.Fatal("document order broken")
	}
	if !d.WholeRegion().Contains(results) {
		t.Fatal("whole region should contain everything")
	}
}

func TestSpanRegionMechanics(t *testing.T) {
	d := MustNewDocument(scholarPage)
	authors := nodeByClassText(t, d, "authors", "M Vaziri, S Gulwani")
	vaziri, ok := d.FindSpan("M Vaziri", 0)
	if !ok {
		t.Fatal("span not found")
	}
	if !authors.Contains(vaziri) {
		t.Fatal("node should contain the span in its text")
	}
	if vaziri.Value() != "M Vaziri" {
		t.Fatalf("span value = %q", vaziri.Value())
	}
	gulwani, _ := d.FindSpan("S Gulwani", 0)
	if vaziri.Overlaps(gulwani) {
		t.Fatal("disjoint spans should not overlap")
	}
	if !vaziri.Less(gulwani) {
		t.Fatal("span order broken")
	}
	if !vaziri.Overlaps(authors) {
		t.Fatal("span/node overlap broken")
	}
}

func TestDeepestNodeContaining(t *testing.T) {
	d := MustNewDocument(scholarPage)
	sp, _ := d.FindSpan("S Gulwani", 0)
	n := deepestNodeContaining(d, sp.Start, sp.End)
	if !n.HasClass("authors") {
		t.Fatalf("deepest node = %s", n.Tag)
	}
}

// ---- node-sequence extraction (titles, products) ----

func TestLearnTitleNodes(t *testing.T) {
	d := MustNewDocument(scholarPage)
	lang := d.Language()
	t1 := nodeByClassText(t, d, "title", "Program Synthesis A")
	t2 := nodeByClassText(t, d, "title", "Type Systems B")
	progs := lang.SynthesizeSeqRegion(context.Background(), []engine.SeqRegionExample{{
		Input:    d.WholeRegion(),
		Positive: []region.Region{t1, t2},
	}})
	if len(progs) == 0 {
		t.Fatal("no programs")
	}
	got := regionValues(extractSeq(t, progs[0], d.WholeRegion()))
	want := "Program Synthesis A,Type Systems B,Verification C"
	if strings.Join(got, ",") != want {
		t.Fatalf("top program %s extracted %v", progs[0], got)
	}
}

func TestLearnProductRegions(t *testing.T) {
	d := MustNewDocument(shopPage)
	lang := d.Language()
	i1 := nodeByClassText(t, d, "item", "Widget")
	progs := lang.SynthesizeSeqRegion(context.Background(), []engine.SeqRegionExample{{
		Input:    d.WholeRegion(),
		Positive: []region.Region{i1},
	}})
	if len(progs) == 0 {
		t.Fatal("no programs")
	}
	got := extractSeq(t, progs[0], d.WholeRegion())
	if len(got) != 3 {
		t.Fatalf("top program %s extracted %d regions, want 3", progs[0], len(got))
	}
}

// ---- intra-node substring sequences (the author list of Ex. 2) ----

func TestLearnAuthorsWithinAuthorGroup(t *testing.T) {
	// As in the paper's Ex. 2, the comma-separated author list lives in a
	// single div (the "yellow" author group); individual authors are
	// learned relative to it. The user ends up giving all three authors of
	// the first publication (the last author is not comma-terminated, so
	// two examples leave it out — the refinement step of §3).
	d := MustNewDocument(scholarPage)
	lang := d.Language()
	div1 := nodeByClassText(t, d, "authors", "M Vaziri, S Gulwani")
	a1, _ := d.FindSpan("M Vaziri", 0)
	a2, _ := d.FindSpan("S Gulwani", 0)
	a3, _ := d.FindSpan("V Le", 0)
	progs := lang.SynthesizeSeqRegion(context.Background(), []engine.SeqRegionExample{{
		Input:    div1,
		Positive: []region.Region{a1, a2, a3},
	}})
	if len(progs) == 0 {
		t.Fatal("no programs")
	}
	got := regionValues(extractSeq(t, progs[0], div1))
	want := []string{"M Vaziri", "S Gulwani", "V Le"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("top program %s extracted %v, want %v", progs[0], got, want)
	}
	// The same program must extract the authors of another publication.
	div2 := nodeByClassText(t, d, "authors", "A One")
	got2 := regionValues(extractSeq(t, progs[0], div2))
	want2 := []string{"A One", "B Two"}
	if strings.Join(got2, "|") != strings.Join(want2, "|") {
		t.Fatalf("on pub2, %s extracted %v, want %v", progs[0], got2, want2)
	}
}

func TestLearnAuthorsTwoExamplesStaysSound(t *testing.T) {
	// With only two comma-terminated examples, every returned program must
	// still cover the examples (the user refines from there).
	d := MustNewDocument(scholarPage)
	lang := d.Language()
	div1 := nodeByClassText(t, d, "authors", "M Vaziri, S Gulwani")
	a1, _ := d.FindSpan("M Vaziri", 0)
	a2, _ := d.FindSpan("S Gulwani", 0)
	progs := lang.SynthesizeSeqRegion(context.Background(), []engine.SeqRegionExample{{
		Input:    div1,
		Positive: []region.Region{a1, a2},
	}})
	if len(progs) == 0 {
		t.Fatal("no programs")
	}
	for _, p := range progs {
		got := extractSeq(t, p, div1)
		found := 0
		for _, r := range got {
			if r == region.Region(a1) || r == region.Region(a2) {
				found++
			}
		}
		if found != 2 {
			t.Fatalf("program %s does not cover the examples: %v", p, regionValues(got))
		}
	}
}

// ---- region programs (struct fields) ----

func TestLearnTitleWithinPublication(t *testing.T) {
	d := MustNewDocument(scholarPage)
	lang := d.Language()
	pub1 := nodeByClassText(t, d, "pub", "Program Synthesis A")
	pub2 := nodeByClassText(t, d, "pub", "Type Systems B")
	t1 := nodeByClassText(t, d, "title", "Program Synthesis A")
	progs := lang.SynthesizeRegion(context.Background(), []engine.RegionExample{{Input: pub1, Output: t1}})
	if len(progs) == 0 {
		t.Fatal("no programs")
	}
	r, err := engine.Extract(progs[0], pub2)
	if err != nil || r == nil {
		t.Fatalf("Extract: %v, %v", r, err)
	}
	if strings.TrimSpace(r.Value()) != "Type Systems B" {
		t.Fatalf("program %s extracted %q", progs[0], r.Value())
	}
}

func TestLearnPriceNumberSpan(t *testing.T) {
	d := MustNewDocument(shopPage)
	lang := d.Language()
	price1 := nodeByClassText(t, d, "price", "$9.99")
	price2 := nodeByClassText(t, d, "price", "$19.50")
	num1, ok := d.FindSpan("9.99", 0)
	if !ok {
		t.Fatal("span not found")
	}
	progs := lang.SynthesizeRegion(context.Background(), []engine.RegionExample{{Input: price1, Output: num1}})
	if len(progs) == 0 {
		t.Fatal("no programs")
	}
	r, err := engine.Extract(progs[0], price2)
	if err != nil || r == nil {
		t.Fatalf("Extract: %v, %v", r, err)
	}
	if r.Value() != "19.50" {
		t.Fatalf("program %s extracted %q, want 19.50", progs[0], r.Value())
	}
}

func TestRegionProgramNullWhenAbsent(t *testing.T) {
	d := MustNewDocument(scholarPage)
	lang := d.Language()
	pub1 := nodeByClassText(t, d, "pub", "Program Synthesis A")
	v1 := nodeByClassText(t, d, "venue", "PLDI 2014")
	progs := lang.SynthesizeRegion(context.Background(), []engine.RegionExample{{Input: pub1, Output: v1}})
	if len(progs) == 0 {
		t.Fatal("no programs")
	}
	// Run against a node with no venue span at all.
	title := nodeByClassText(t, d, "title", "Program Synthesis A")
	r, err := engine.Extract(progs[0], title)
	if err != nil {
		t.Fatalf("Extract error: %v", err)
	}
	if r != nil {
		if nr, isNode := r.(NodeRegion); isNode && nr.Node.HasClass("venue") {
			t.Fatalf("extracted a venue from inside a title: %v", r)
		}
	}
}

// ---- negative examples ----

func TestNegativeExampleExcludesAds(t *testing.T) {
	page := `<html><body>
<div class="row"><span>keep1</span></div>
<div class="row"><span>skip</span></div>
<div class="row"><span>keep2</span></div>
<div class="row"><span>keep3</span></div>
</body></html>`
	d := MustNewDocument(page)
	lang := d.Language()
	rows := d.Root.FindAll(func(n *htmldom.Node) bool { return n.HasClass("row") })
	progs := lang.SynthesizeSeqRegion(context.Background(), []engine.SeqRegionExample{{
		Input:    d.WholeRegion(),
		Positive: []region.Region{d.NodeOf(rows[0]), d.NodeOf(rows[2])},
		Negative: []region.Region{d.NodeOf(rows[1])},
	}})
	for _, p := range progs {
		for _, r := range extractSeq(t, p, d.WholeRegion()) {
			if r.Overlaps(d.NodeOf(rows[1])) {
				t.Fatalf("program %s extracts the negative region", p)
			}
		}
	}
}

// ---- cross-document transfer ----

func TestProgramTransfersToAnotherScholarPage(t *testing.T) {
	d := MustNewDocument(scholarPage)
	lang := d.Language()
	t1 := nodeByClassText(t, d, "title", "Program Synthesis A")
	t2 := nodeByClassText(t, d, "title", "Type Systems B")
	progs := lang.SynthesizeSeqRegion(context.Background(), []engine.SeqRegionExample{{
		Input:    d.WholeRegion(),
		Positive: []region.Region{t1, t2},
	}})
	if len(progs) == 0 {
		t.Fatal("no programs")
	}
	other := MustNewDocument(`<html><body>
<div id="results">
  <div class="pub"><a class="title">New Paper X</a><div class="authors">X, Y</div><span class="venue">V1</span><span class="cites">Cited by 1</span></div>
  <div class="pub"><a class="title">New Paper Y</a><div class="authors">Z</div><span class="venue">V2</span><span class="cites">Cited by 2</span></div>
</div>
</body></html>`)
	got := regionValues(extractSeq(t, progs[0], other.WholeRegion()))
	if strings.Join(got, ",") != "New Paper X,New Paper Y" {
		t.Fatalf("transfer extracted %v", got)
	}
}

// ---- degenerate inputs ----

func TestSynthesizeEmptyInputs(t *testing.T) {
	var l lang
	if got := l.SynthesizeSeqRegion(context.Background(), nil); got != nil {
		t.Fatal("expected nil")
	}
	if got := l.SynthesizeRegion(context.Background(), nil); got != nil {
		t.Fatal("expected nil")
	}
}

func TestSynthesizeRegionRejectsOutsideOutput(t *testing.T) {
	d := MustNewDocument(scholarPage)
	var l lang
	pub1 := nodeByClassText(t, d, "pub", "Program Synthesis A")
	t2 := nodeByClassText(t, d, "title", "Type Systems B")
	if got := l.SynthesizeRegion(context.Background(), []engine.RegionExample{{Input: pub1, Output: t2}}); got != nil {
		t.Fatal("output outside input must fail")
	}
}

func TestSeqProgramStringMentionsXPath(t *testing.T) {
	d := MustNewDocument(shopPage)
	lang := d.Language()
	i1 := nodeByClassText(t, d, "item", "Widget")
	i2 := nodeByClassText(t, d, "item", "Gadget")
	progs := lang.SynthesizeSeqRegion(context.Background(), []engine.SeqRegionExample{{
		Input:    d.WholeRegion(),
		Positive: []region.Region{i1, i2},
	}})
	if len(progs) == 0 {
		t.Fatal("no programs")
	}
	if !strings.Contains(progs[0].String(), "XPaths") {
		t.Fatalf("String = %q", progs[0].String())
	}
}

// ---- span sequences across element nodes (SeqPairMap) ----

func TestLearnPriceNumberSequence(t *testing.T) {
	// "Widget" and "Gadget" both end in 't', so two examples let an
	// overfit left-context win; the user adds the third price (the
	// refinement loop of §3) and the program generalizes.
	d := MustNewDocument(shopPage)
	lang := d.Language()
	n1, _ := d.FindSpan("9.99", 0)
	n2, _ := d.FindSpan("19.50", 0)
	n3, _ := d.FindSpan("3.25", 0)
	progs := lang.SynthesizeSeqRegion(context.Background(), []engine.SeqRegionExample{{
		Input:    d.WholeRegion(),
		Positive: []region.Region{n1, n2, n3},
	}})
	if len(progs) == 0 {
		t.Fatal("no programs")
	}
	got := regionValues(extractSeq(t, progs[0], d.WholeRegion()))
	want := []string{"9.99", "19.50", "3.25"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("top program %s extracted %v, want %v", progs[0], got, want)
	}
}

func TestSeqProgramsRejectSpanInput(t *testing.T) {
	// Lweb sequence programs run over node regions only: a span ancestor
	// (here one whose text holds a price) must fail the program rather
	// than have its position sequence read the span's text.
	d := MustNewDocument(shopPage)
	progs := d.Language().SynthesizeSeqRegion(context.Background(), []engine.SeqRegionExample{{
		Input:    d.WholeRegion(),
		Positive: []region.Region{mustSpan(t, d, "9.99"), mustSpan(t, d, "19.50")},
	}})
	if len(progs) == 0 {
		t.Fatal("no programs")
	}
	span := mustSpan(t, d, "GadgetSale: $19.50 USD")
	for _, p := range progs {
		if out, err := engine.ExtractSeq(p, span); err == nil {
			t.Fatalf("program %s ran on span %s: %v", p, span, regionValues(out))
		}
	}
}

// TestPosSeqRefusesSpanInput pins how Lweb's PosSeq reads R0: over a
// node's text content, never over a span. Run on a span R0 it fails, as
// XPaths does, and learned from one it learns nothing, so that a web
// sequence program runs and is learned under nodes only.
func TestPosSeqRefusesSpanInput(t *testing.T) {
	d := MustNewDocument(shopPage)
	node := d.WholeRegion()
	span := mustSpan(t, d, "GadgetSale: $19.50 USD")
	price := mustSpan(t, d, "19.50").Start
	p := poslang.Web.PosSeq(tokens.RegexPair{Right: tokens.Regex{tokens.Number}})
	if v, err := p.Exec(core.NewState(node)); err != nil || len(v.([]core.Value)) == 0 {
		t.Fatalf("%s on the page: %v, %v", p, v, err)
	}
	if v, err := p.Exec(core.NewState(span)); err == nil {
		t.Fatalf("%s ran on span %s: %v", p, span, v)
	}
	ps := poslang.Web.NewLearner(d.cache, nil).PS()
	learn := func(r0 region.Region) []core.Program {
		return ps(context.Background(), []core.SeqExample{{State: core.NewState(r0), Positive: []core.Value{price}}})
	}
	if got := learn(node); len(got) == 0 {
		t.Fatal("no PS program learned on the page")
	}
	if got := learn(span); len(got) != 0 {
		t.Fatalf("learned %d PS programs on span %s, first %s", len(got), span, got[0])
	}
}

// TestMapBodiesReadX pins which values of the λ-bound x the pair and
// position bodies read. Lweb's SeqPairMap body reads a node and refuses
// anything else, a span included, as PosSeq refuses a span R0. Ltext's
// bodies read a span: any Ltext region, and also an Lweb span, and refuse
// a node and any value that is not a region. Exec and the sweep agree.
func TestMapBodiesReadX(t *testing.T) {
	d := MustNewDocument(shopPage)
	node := nodeByClassText(t, d, "price", "19.50")
	span := mustSpan(t, d, "Sale: $19.50 USD")
	td := textlang.NewDocument("Sale: $19.50 USD")
	line := td.WholeRegion()
	num := tokens.RegPos{RR: tokens.RegexPair{Right: tokens.Regex{tokens.Number}}, K: 1}
	end := tokens.AbsPos{K: -1}
	cases := []struct {
		body core.Program
		x    core.Value
		ok   bool
	}{
		{poslang.Web.XPair(num, end), node, true},
		{poslang.Web.XPair(num, end), span, false},
		{poslang.Web.XPair(num, end), line, false},
		{poslang.Web.XPair(num, end), 7, false},
		{poslang.Text.XPair(num, end), line, true},
		{poslang.Text.XPair(num, end), span, true},
		{poslang.Text.XPair(num, end), node, false},
		{poslang.Text.XPair(num, end), 7, false},
		{poslang.Text.XPos(num), line, true},
		{poslang.Text.XPos(num), span, true},
		{poslang.Text.XPos(num), node, false},
		{poslang.Text.XPos(num), nil, false},
	}
	for _, tc := range cases {
		v, err := tc.body.Exec(core.NewState(d.WholeRegion()).Bind("x", tc.x))
		if (err == nil) != tc.ok {
			t.Errorf("%s on %v (%T): %v, %v", tc.body, tc.x, tc.x, v, err)
		}
		vs, err := tc.body.(core.SeqBody).ExecSeq(core.NewState(d.WholeRegion()), "x", []core.Value{tc.x})
		if (err == nil) != tc.ok || tc.ok && vs[0] != v {
			t.Errorf("%s swept over %v (%T): %v, %v", tc.body, tc.x, tc.x, vs, err)
		}
	}
}

// ---- serialization round trips ----

// decodeLeaf is the language's leaf decoder (engine.ProgramCodec).
var decodeLeaf = new(lang).DecodeLeaf

// roundTrip serializes a learned program's core tree and decodes it back
// through the language's leaf decoder, as engine.SaveSchemaProgram and
// engine.LoadSchemaProgram do.
func roundTrip(p core.Program) ([]byte, core.Program, error) {
	data, err := core.MarshalProgram(p)
	if err != nil {
		return nil, nil, err
	}
	back, err := core.DecodeContext{Leaf: decodeLeaf, Less: engine.RegionLess}.UnmarshalProgram(data)
	return data, back, err
}

func TestSeqProgramSerializationRoundTrip(t *testing.T) {
	d := MustNewDocument(shopPage)
	l := d.Language().(lang)
	for name, positives := range map[string][]region.Region{
		"nodes": {nodeByClassText(t, d, "pname", "Widget"), nodeByClassText(t, d, "pname", "Gadget")},
		"spans": {mustSpan(t, d, "9.99"), mustSpan(t, d, "19.50")},
	} {
		progs := l.SynthesizeSeqRegion(context.Background(), []engine.SeqRegionExample{{
			Input:    d.WholeRegion(),
			Positive: positives,
		}})
		if len(progs) == 0 {
			t.Fatalf("%s: no programs", name)
		}
		_, back, err := roundTrip(progs[0])
		if err != nil {
			t.Fatalf("%s: round trip: %v", name, err)
		}
		origOut := regionValues(extractSeq(t, progs[0], d.WholeRegion()))
		backOut := regionValues(extractSeq(t, back, d.WholeRegion()))
		if strings.Join(origOut, "|") != strings.Join(backOut, "|") {
			t.Fatalf("%s: round trip changed behaviour: %v vs %v", name, origOut, backOut)
		}
	}
}

func TestRegionProgramSerializationRoundTrip(t *testing.T) {
	d := MustNewDocument(shopPage)
	l := d.Language().(lang)
	item := nodeByClassText(t, d, "item", "Widget")
	item2 := nodeByClassText(t, d, "item", "Gadget")
	for name, ex := range map[string]engine.RegionExample{
		"node": {Input: item, Output: nodeByClassText(t, d, "pname", "Widget")},
		"span": {Input: nodeByClassText(t, d, "price", "9.99"), Output: mustSpan(t, d, "9.99")},
	} {
		progs := l.SynthesizeRegion(context.Background(), []engine.RegionExample{ex})
		if len(progs) == 0 {
			t.Fatalf("%s: no programs", name)
		}
		_, back, err := roundTrip(progs[0])
		if err != nil {
			t.Fatalf("%s: round trip: %v", name, err)
		}
		var in region.Region = item2
		if name == "span" {
			in = nodeByClassText(t, d, "price", "19.50")
		}
		r1, err1 := engine.Extract(progs[0], in)
		r2, err2 := engine.Extract(back, in)
		if (err1 == nil) != (err2 == nil) || (r1 != nil) != (r2 != nil) {
			t.Fatalf("%s: round trip changed behaviour", name)
		}
		if r1 != nil && r1.Value() != r2.Value() {
			t.Fatalf("%s: values differ: %q vs %q", name, r1.Value(), r2.Value())
		}
	}
}

func TestDecodeLeafErrors(t *testing.T) {
	for _, spec := range []core.ProgramSpec{
		{Op: "web.unknown"},
		{Op: "web.xpath", Attrs: map[string]string{"path": "no-slash"}},
		{Op: "web.posSeq", Attrs: map[string]string{"rr": "junk"}},
		{Op: "web.startPair", Attrs: map[string]string{"p": "junk"}},
		{Op: "web.spanPair", Attrs: map[string]string{"p1": "junk", "p2": "junk"}},
	} {
		if _, err := decodeLeaf(spec); err == nil {
			t.Errorf("decodeLeaf(%s) succeeded, want error", spec.Op)
		}
	}
}

func mustSpan(t *testing.T, d *Document, sub string) SpanRegion {
	t.Helper()
	s, ok := d.FindSpan(sub, 0)
	if !ok {
		t.Fatalf("span %q not found", sub)
	}
	return s
}

// ---- region mechanics edge cases ----

func TestSpanVersusNodeOrdering(t *testing.T) {
	d := MustNewDocument(shopPage)
	price := nodeByClassText(t, d, "price", "9.99")
	sp := mustSpan(t, d, "9.99")
	if !price.Less(sp) {
		t.Fatal("node at same content should order before inner span")
	}
	if sp.Less(price) {
		t.Fatal("span should not order before its containing node")
	}
	if price.String() == "" || sp.String() == "" {
		t.Fatal("String() should be non-empty")
	}
}

func TestSpanContainsNode(t *testing.T) {
	d := MustNewDocument(shopPage)
	price := nodeByClassText(t, d, "price", "9.99")
	wide := SpanRegion{Doc: d, Start: price.Node.TextStart, End: price.Node.TextEnd}
	if !wide.Contains(price) {
		t.Fatal("span covering a node's text range should contain it")
	}
	if !wide.Overlaps(price) {
		t.Fatal("span should overlap the node")
	}
}

func TestWebSpan(t *testing.T) {
	d := MustNewDocument(scholarPage)
	title := nodeByClassText(t, d, "title", "Program Synthesis A")
	venue := nodeByClassText(t, d, "venue", "PLDI 2014")
	joined, err := d.Span(title, venue)
	if err != nil {
		t.Fatal(err)
	}
	nr, ok := joined.(NodeRegion)
	if !ok || !nr.Node.HasClass("pub") {
		t.Fatalf("Span = %v, want the pub container", joined)
	}
	// span + node input
	author, _ := d.FindSpan("M Vaziri", 0)
	joined2, err := d.Span(title, author)
	if err != nil {
		t.Fatal(err)
	}
	if nr2 := joined2.(NodeRegion); !nr2.Node.HasClass("pub") {
		t.Fatalf("Span with span input = %v", joined2)
	}
	// foreign region errors
	other := MustNewDocument("<p>x</p>")
	if _, err := d.Span(title, other.WholeRegion()); err == nil {
		t.Fatal("cross-document span accepted")
	}
}

// TestSpanRegionIntervalContract pins the core.Interval contract the
// engine's interval path relies on: on random pairs of spans, equality,
// Less, Contains and Overlaps agree with the interval relations of the
// endpoints Interval reports, and spans of different documents never
// nest or overlap.
func TestSpanRegionIntervalContract(t *testing.T) {
	docs := []*Document{MustNewDocument(scholarPage), MustNewDocument(shopPage)}
	rng := rand.New(rand.NewSource(1))
	random := func() SpanRegion {
		d := docs[rng.Intn(4)/3] // mostly the first document
		s := rng.Intn(len(d.Text) + 1)
		return SpanRegion{Doc: d, Start: s, End: s + rng.Intn(min(12, len(d.Text)-s)+1)}
	}
	for i := 0; i < 20000; i++ {
		a, b := random(), random()
		if rng.Intn(2) == 0 { // near pairs, so nesting and overlap occur
			b.Doc, b.Start = a.Doc, max(0, a.Start-3+rng.Intn(7))
			b.End = min(len(b.Doc.Text), max(b.Start, a.End-3+rng.Intn(7)))
		}
		as, s1, e1 := a.Interval()
		bs, s2, e2 := b.Interval()
		same := as == bs
		if got, want := a == b, same && s1 == s2 && e1 == e2; got != want {
			t.Fatalf("%v == %v is %v, want %v", a, b, got, want)
		}
		if got, want := a.Contains(b), same && s1 <= s2 && e2 <= e1; got != want {
			t.Fatalf("%v.Contains(%v) = %v, want %v", a, b, got, want)
		}
		if got, want := a.Overlaps(b), same && s1 < e2 && s2 < e1; got != want {
			t.Fatalf("%v.Overlaps(%v) = %v, want %v", a, b, got, want)
		}
		if got, want := a.Less(b), s1 < s2 || s1 == s2 && e1 > e2; same && got != want {
			t.Fatalf("%v.Less(%v) = %v, want %v", a, b, got, want)
		}
	}
}

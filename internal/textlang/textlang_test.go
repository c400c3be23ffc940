package textlang

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"flashextract/internal/core"
	"flashextract/internal/engine"
	"flashextract/internal/poslang"
	"flashextract/internal/region"
	"flashextract/internal/tokens"
)

// analyteText mirrors the structure of the paper's Ex. 1 (Fig. 1): a
// sequence of sample reports, each listing analytes with mass and
// concentration mean.
const analyteText = `DLZ - Summary Report

"Sample ID:,""5007-01"""
Analyte,"Mass","Conc. Mean"
ICP,""Be"",9,0.070073
ICP,""Sc"",45,0.042397
ICP,""Mn"",55,0.031052

DLZ - Summary Report

"Sample ID:,""5007-02"""
Analyte,"Mass","Conc. Mean"
ICP,""Be"",9,0.080112
ICP,""V"",51,0.069071
`

func analyteDoc() *Document { return NewDocument(analyteText) }

// mustFind returns the n-th occurrence region of sub.
func mustFind(t *testing.T, d *Document, sub string, n int) Region {
	t.Helper()
	r, ok := d.FindRegion(sub, n)
	if !ok {
		t.Fatalf("occurrence %d of %q not found", n, sub)
	}
	return r
}

// lineRegion returns the full-line region containing the n-th occurrence
// of sub.
func lineRegion(t *testing.T, d *Document, sub string, n int) Region {
	t.Helper()
	r := mustFind(t, d, sub, n)
	whole := d.WholeRegion().(Region)
	l, ok := lineContaining(linesIn(whole), r.Start, r.End)
	if !ok {
		t.Fatalf("no line contains %q", sub)
	}
	return l
}

func extractAll(t *testing.T, p core.Program, in region.Region) []region.Region {
	t.Helper()
	out, err := engine.ExtractSeq(p, in)
	if err != nil {
		t.Fatalf("ExtractSeq(%s): %v", p, err)
	}
	return out
}

// ---- document / region mechanics ----

func TestRegionBasics(t *testing.T) {
	d := NewDocument("hello world")
	r := d.Region(0, 5)
	if r.Value() != "hello" {
		t.Fatalf("Value = %q", r.Value())
	}
	o := d.Region(6, 11)
	if r.Overlaps(o) {
		t.Fatal("disjoint regions overlap")
	}
	if !d.WholeRegion().Contains(r) || !d.WholeRegion().Contains(o) {
		t.Fatal("whole region should contain everything")
	}
	if !r.Less(o) || o.Less(r) {
		t.Fatal("ordering broken")
	}
	outer := d.Region(0, 11)
	if !outer.Less(r) {
		t.Fatal("outer region should order before inner at same start")
	}
	if r.String() != "[0,5)" {
		t.Fatalf("String = %q", r.String())
	}
}

func TestRegionPanicsOnBadRange(t *testing.T) {
	d := NewDocument("abc")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Region(2, 9)
}

func TestLinesIn(t *testing.T) {
	d := NewDocument("a\n\nbc\n")
	lines := linesIn(d.WholeRegion().(Region))
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3 (incl. interior empty)", len(lines))
	}
	if lines[0].Value() != "a" || lines[1].Value() != "" || lines[2].Value() != "bc" {
		t.Fatalf("lines = %q %q %q", lines[0].Value(), lines[1].Value(), lines[2].Value())
	}
	// no trailing newline
	d2 := NewDocument("x\ny")
	lines2 := linesIn(d2.WholeRegion().(Region))
	if len(lines2) != 2 || lines2[1].Value() != "y" {
		t.Fatalf("lines2 = %v", lines2)
	}
	// sub-region clipping
	mid := d2.Region(1, 3) // "\ny"… clipped segments "" and "y"
	linesMid := linesIn(mid)
	if len(linesMid) != 2 || linesMid[0].Value() != "" || linesMid[1].Value() != "y" {
		t.Fatalf("clipped lines = %v", linesMid)
	}

	// The whole file is split once, also when goroutines ask at once: every
	// call shares one backing array.
	d3 := NewDocument(analyteText)
	firsts := make([]*Region, 4)
	var wg sync.WaitGroup
	for g := range firsts {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			firsts[g] = &linesIn(d3.WholeRegion().(Region))[0]
		}(g)
	}
	wg.Wait()
	for _, f := range firsts {
		if f != firsts[0] {
			t.Fatal("concurrent calls split the whole file more than once")
		}
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		b := make([]byte, rng.Intn(40))
		for i := range b {
			b[i] = "ab\n"[rng.Intn(3)]
		}
		d := NewDocument(string(b))
		first, second := linesIn(d.WholeRegion().(Region)), linesIn(d.WholeRegion().(Region))
		if &first[0] != &second[0] {
			t.Fatalf("%q: the whole file was split twice", d.Text)
		}
		assertFreshSplit(t, d, 0, len(d.Text))
		// Random sub-ranges, and ranges that start or end on a newline.
		var ranges [][2]int
		for i := 0; i < 8; i++ {
			lo := rng.Intn(len(d.Text) + 1)
			ranges = append(ranges, [2]int{lo, lo + rng.Intn(len(d.Text)-lo+1)})
		}
		for i := 0; i < len(d.Text); i++ {
			if d.Text[i] == '\n' {
				ranges = append(ranges, [2]int{i, len(d.Text)}, [2]int{0, i}, [2]int{0, i + 1}, [2]int{i, i + 1})
			}
		}
		for _, rg := range ranges {
			assertFreshSplit(t, d, rg[0], rg[1])
		}
	}
}

// assertFreshSplit checks linesIn over Text[lo:hi] against a split of the
// substring on '\n' that drops the empty segment after a trailing newline.
func assertFreshSplit(t *testing.T, d *Document, lo, hi int) {
	t.Helper()
	parts := strings.Split(d.Text[lo:hi], "\n")
	if n := len(parts); n > 1 && parts[n-1] == "" {
		parts = parts[:n-1]
	}
	got := linesIn(d.Region(lo, hi))
	if len(got) != len(parts) {
		t.Fatalf("%q[%d:%d]: %d lines, want %d", d.Text, lo, hi, len(got), len(parts))
	}
	at := lo
	for i, p := range parts {
		if want := d.Region(at, at+len(p)); got[i] != want {
			t.Fatalf("%q[%d:%d]: line %d is %v, want %v", d.Text, lo, hi, i, got[i], want)
		}
		at += len(p) + 1
	}
}

func TestFindRegion(t *testing.T) {
	d := NewDocument("ab ab ab")
	r, ok := d.FindRegion("ab", 2)
	if !ok || r.Start != 6 {
		t.Fatalf("FindRegion = %v, %v", r, ok)
	}
	if _, ok := d.FindRegion("zz", 0); ok {
		t.Fatal("found nonexistent substring")
	}
}

// ---- sequence synthesis: whole-line extraction (Ex. 4 of the paper) ----

func TestLearnYellowLines(t *testing.T) {
	d := analyteDoc()
	lang := d.Language()
	// The analyte lines are those starting with "ICP," — give the first
	// two as examples.
	l0 := lineRegion(t, d, `""Be""`, 0)
	l1 := lineRegion(t, d, `""Sc""`, 0)
	progs := lang.SynthesizeSeqRegion(context.Background(), []engine.SeqRegionExample{{
		Input:    d.WholeRegion(),
		Positive: []region.Region{l0, l1},
	}})
	if len(progs) == 0 {
		t.Fatal("no programs")
	}
	got := extractAll(t, progs[0], d.WholeRegion())
	if len(got) != 5 {
		t.Fatalf("top program %s extracted %d regions, want the 5 analyte lines:\n%v", progs[0], len(got), got)
	}
	for _, r := range got {
		if !strings.HasPrefix(r.Value(), "ICP,") {
			t.Fatalf("non-analyte line extracted: %q by %s", r.Value(), progs[0])
		}
	}
}

// ---- substring sequence extraction (Ex. 5: the magenta analyte names) ----

func TestLearnAnalyteNames(t *testing.T) {
	d := analyteDoc()
	lang := d.Language()
	be := mustFind(t, d, "Be", 0)
	sc := mustFind(t, d, "Sc", 0)
	progs := lang.SynthesizeSeqRegion(context.Background(), []engine.SeqRegionExample{{
		Input:    d.WholeRegion(),
		Positive: []region.Region{be, sc},
	}})
	if len(progs) == 0 {
		t.Fatal("no programs")
	}
	got := extractAll(t, progs[0], d.WholeRegion())
	want := []string{"Be", "Sc", "Mn", "Be", "V"}
	if len(got) != len(want) {
		t.Fatalf("program %s extracted %d regions (%v), want %d", progs[0], len(got), values(got), len(want))
	}
	for i, r := range got {
		if r.Value() != want[i] {
			t.Fatalf("extracted %v, want %v", values(got), want)
		}
	}
}

func values(rs []region.Region) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.Value()
	}
	return out
}

// ---- negative examples refine the learned program ----

func TestNegativeExampleRefinement(t *testing.T) {
	d := analyteDoc()
	lang := d.Language()
	// Positive: the first analyte line. Suppose the initial program also
	// captured the header line; the user strikes it as negative.
	l0 := lineRegion(t, d, `""Be""`, 0)
	header := lineRegion(t, d, "Analyte,", 0)
	progs := lang.SynthesizeSeqRegion(context.Background(), []engine.SeqRegionExample{{
		Input:    d.WholeRegion(),
		Positive: []region.Region{l0},
		Negative: []region.Region{header},
	}})
	if len(progs) == 0 {
		t.Fatal("no programs")
	}
	for _, p := range progs {
		for _, r := range extractAll(t, p, d.WholeRegion()) {
			if r.Overlaps(header) {
				t.Fatalf("program %s extracts the negative region", p)
			}
		}
	}
}

// ---- region (struct field) synthesis within a line ----

func TestLearnRegionWithinLine(t *testing.T) {
	d := analyteDoc()
	lang := d.Language()
	// Input: the first analyte line; output: the mass number "9".
	l0 := lineRegion(t, d, `""Be""`, 0)
	l1 := lineRegion(t, d, `""Sc""`, 0)
	mass0 := d.Region(l0.Start+len(`ICP,""Be"",`), l0.Start+len(`ICP,""Be"",9`))
	if mass0.Value() != "9" {
		t.Fatalf("test setup: mass0 = %q", mass0.Value())
	}
	progs := lang.SynthesizeRegion(context.Background(), []engine.RegionExample{{Input: l0, Output: mass0}})
	if len(progs) == 0 {
		t.Fatal("no programs")
	}
	// The top program must find the mass in the second analyte line too.
	r, err := engine.Extract(progs[0], l1)
	if err != nil || r == nil {
		t.Fatalf("Extract on line 2: %v, %v", r, err)
	}
	if r.Value() != "45" {
		t.Fatalf("program %s extracted %q from line 2, want 45", progs[0], r.Value())
	}
}

func TestRegionProgramNullOnNoMatch(t *testing.T) {
	d := analyteDoc()
	lang := d.Language()
	l0 := lineRegion(t, d, `""Be""`, 0)
	conc0 := mustFind(t, d, "0.070073", 0)
	progs := lang.SynthesizeRegion(context.Background(), []engine.RegionExample{{Input: l0, Output: conc0}})
	if len(progs) == 0 {
		t.Fatal("no programs")
	}
	// Run on a line with no decimal number: expect null, not an error.
	headerLine := lineRegion(t, d, "DLZ", 0)
	r, err := engine.Extract(progs[0], headerLine)
	if err != nil {
		t.Fatalf("Extract error: %v", err)
	}
	if r != nil && strings.Contains(r.Value(), "0.") {
		t.Fatalf("unexpectedly extracted %q from the header", r.Value())
	}
}

// ---- FilterInt behaviour: alternating lines ----

func TestLearnAlternatingLines(t *testing.T) {
	text := "h1\nv1\nh2\nv2\nh3\nv3\nh4\nv4\n"
	d := NewDocument(text)
	lang := d.Language()
	// Positives: the first two h-lines (indices 0 and 2).
	whole := d.WholeRegion().(Region)
	lines := linesIn(whole)
	progs := lang.SynthesizeSeqRegion(context.Background(), []engine.SeqRegionExample{{
		Input:    d.WholeRegion(),
		Positive: []region.Region{lines[0], lines[2]},
	}})
	if len(progs) == 0 {
		t.Fatal("no programs")
	}
	got := extractAll(t, progs[0], d.WholeRegion())
	if len(got) != 4 {
		t.Fatalf("%s extracted %v, want the 4 h-lines", progs[0], values(got))
	}
	for _, r := range got {
		if !strings.HasPrefix(r.Value(), "h") {
			t.Fatalf("%s extracted %v", progs[0], values(got))
		}
	}
}

// ---- multi-line structure boundaries via Merge/StartSeqMap ----

func TestLearnMultiLineStructures(t *testing.T) {
	d := analyteDoc()
	lang := d.Language()
	// Green regions: each sample report, from "DLZ" up to (not including)
	// the blank line before the next report / end of file.
	start2 := mustFind(t, d, "DLZ", 1)
	g1 := d.Region(0, start2.Start-1)         // first sample incl. trailing newline of its last line
	g2 := d.Region(start2.Start, len(d.Text)) // second sample to EOF
	progs := lang.SynthesizeSeqRegion(context.Background(), []engine.SeqRegionExample{{
		Input:    d.WholeRegion(),
		Positive: []region.Region{g1, g2},
	}})
	if len(progs) == 0 {
		t.Fatal("no programs for multi-line structures")
	}
	got := extractAll(t, progs[0], d.WholeRegion())
	if len(got) != 2 {
		t.Fatalf("%s extracted %d regions, want 2: %v", progs[0], len(got), got)
	}
	if got[0].(Region) != g1 || got[1].(Region) != g2 {
		t.Fatalf("extracted %v and %v, want %v and %v", got[0], got[1], g1, g2)
	}
}

// ---- transferring a program to a similar document ----

func TestProgramTransfersToSimilarDocument(t *testing.T) {
	d := analyteDoc()
	lang := d.Language()
	be := mustFind(t, d, "Be", 0)
	sc := mustFind(t, d, "Sc", 0)
	progs := lang.SynthesizeSeqRegion(context.Background(), []engine.SeqRegionExample{{
		Input:    d.WholeRegion(),
		Positive: []region.Region{be, sc},
	}})
	if len(progs) == 0 {
		t.Fatal("no programs")
	}
	other := NewDocument(`DLZ - Summary Report

"Sample ID:,""9001-07"""
Analyte,"Mass","Conc. Mean"
ICP,""Fe"",56,0.120073
ICP,""Cu"",63,0.042399
`)
	got := extractAll(t, progs[0], other.WholeRegion())
	want := []string{"Fe", "Cu"}
	if len(got) != 2 || got[0].Value() != want[0] || got[1].Value() != want[1] {
		t.Fatalf("transfer extracted %v, want %v", values(got), want)
	}
}

// ---- soundness of every returned program ----

func TestAllReturnedProgramsConsistent(t *testing.T) {
	d := analyteDoc()
	lang := d.Language()
	be := mustFind(t, d, "Be", 0)
	sc := mustFind(t, d, "Sc", 0)
	exs := []engine.SeqRegionExample{{
		Input:    d.WholeRegion(),
		Positive: []region.Region{be, sc},
	}}
	for _, p := range lang.SynthesizeSeqRegion(context.Background(), exs) {
		got := extractAll(t, p, d.WholeRegion())
		if !regionSubseq([]region.Region{be, sc}, got) {
			t.Fatalf("program %s is inconsistent with its examples", p)
		}
	}
}

func regionSubseq(sub, seq []region.Region) bool {
	i := 0
	for _, v := range seq {
		if i == len(sub) {
			return true
		}
		if v == sub[i] {
			i++
		}
	}
	return i == len(sub)
}

// ---- degenerate inputs ----

func TestSynthesizeSeqRegionEmpty(t *testing.T) {
	var l lang
	if got := l.SynthesizeSeqRegion(context.Background(), nil); got != nil {
		t.Fatal("expected nil for no examples")
	}
}

func TestSynthesizeRegionEmpty(t *testing.T) {
	var l lang
	if got := l.SynthesizeRegion(context.Background(), nil); got != nil {
		t.Fatal("expected nil for no examples")
	}
}

func TestSynthesizeRegionRejectsOutsideOutput(t *testing.T) {
	d := analyteDoc()
	var l lang
	in := d.Region(0, 3)
	out := d.Region(5, 9)
	if got := l.SynthesizeRegion(context.Background(), []engine.RegionExample{{Input: in, Output: out}}); got != nil {
		t.Fatal("output outside input must fail")
	}
}

// ---- program display ----

func TestProgramStringsMentionOperators(t *testing.T) {
	d := analyteDoc()
	lang := d.Language()
	l0 := lineRegion(t, d, `""Be""`, 0)
	l1 := lineRegion(t, d, `""Sc""`, 0)
	progs := lang.SynthesizeSeqRegion(context.Background(), []engine.SeqRegionExample{{
		Input:    d.WholeRegion(),
		Positive: []region.Region{l0, l1},
	}})
	if len(progs) == 0 {
		t.Fatal("no programs")
	}
	s := progs[0].String()
	for _, frag := range []string{"Map", "FilterInt", "split"} {
		if !strings.Contains(s, frag) {
			t.Errorf("program display %q missing %q", s, frag)
		}
	}
}

// ---- direct exec-path tests for leaf programs ----

func TestPosSeqProgExec(t *testing.T) {
	d := NewDocument("a1 b2 c3")
	// Evaluate on a sub-region to check the absolute-offset conversion.
	sub := d.Region(3, 8) // "b2 c3"
	st := core.NewState(sub)
	p := poslang.Text.PosSeq(tokens.RegexPair{Left: tokens.Regex{tokens.Number}})
	v, err := p.Exec(st)
	if err != nil {
		t.Fatal(err)
	}
	seq, _ := core.AsSeq(v)
	if len(seq) != 2 || seq[0] != 5 || seq[1] != 8 {
		t.Fatalf("positions = %v, want [5 8]", seq)
	}
	if !strings.Contains(p.String(), "PosSeq") {
		t.Fatalf("String = %q", p.String())
	}
}

func TestLinePredSubjectMissingNeighbor(t *testing.T) {
	d := NewDocument("only\nlines")
	whole := d.WholeRegion().(Region)
	lines := linesIn(whole)
	st := core.NewState(whole).Bind(poslang.X, lines[0])
	pred := linePred{kind: predPredStartsWith}
	v, err := pred.Exec(st)
	if err != nil || v != core.Value(false) {
		t.Fatalf("predicate on missing predecessor = %v, %v (want false)", v, err)
	}
	st2 := core.NewState(whole).Bind(poslang.X, lines[1])
	pred2 := linePred{kind: predSuccEndsWith}
	v2, err := pred2.Exec(st2)
	if err != nil || v2 != core.Value(false) {
		t.Fatalf("predicate on missing successor = %v, %v (want false)", v2, err)
	}
}

func TestRegionPairProgRejectsInvertedPositions(t *testing.T) {
	d := NewDocument("abc")
	st := core.NewState(d.WholeRegion().(Region))
	p := poslang.Text.RegionPair(tokens.AbsPos{K: 2}, tokens.AbsPos{K: 1})
	if _, err := p.Exec(st); err == nil {
		t.Fatal("inverted positions should fail")
	}
}

// TestRegionIntervalContract pins the core.Interval contract the engine's
// interval path relies on: on random pairs of regions, equality, Less,
// Contains and Overlaps agree with the interval relations of the
// endpoints Interval reports, and regions of different documents never
// nest or overlap.
func TestRegionIntervalContract(t *testing.T) {
	docs := []*Document{NewDocument(strings.Repeat("ab 12\n", 6)), NewDocument("ab 12")}
	rng := rand.New(rand.NewSource(1))
	random := func() Region {
		d := docs[rng.Intn(4)/3] // mostly the first document
		s := rng.Intn(len(d.Text) + 1)
		return d.Region(s, s+rng.Intn(len(d.Text)-s+1))
	}
	for i := 0; i < 20000; i++ {
		a, b := random(), random()
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

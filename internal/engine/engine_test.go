package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"flashextract/internal/core"
	"flashextract/internal/region"
	"flashextract/internal/schema"
)

// ---- a tiny fake domain: documents are strings, regions are spans ----

type span struct {
	doc  string
	s, e int
}

func (r span) Contains(other region.Region) bool {
	o, ok := other.(span)
	return ok && o.doc == r.doc && r.s <= o.s && o.e <= r.e
}

func (r span) Overlaps(other region.Region) bool {
	o, ok := other.(span)
	return ok && o.doc == r.doc && r.s < o.e && o.s < r.e
}

func (r span) Less(other region.Region) bool {
	o := other.(span)
	if r.s != o.s {
		return r.s < o.s
	}
	return r.e > o.e // larger regions first at the same start
}

func (r span) Value() string  { return r.doc[r.s:r.e] }
func (r span) String() string { return fmt.Sprintf("[%d,%d)", r.s, r.e) }

// fakeDoc's text is a sequence of lines, each "word number".
type fakeDoc struct {
	text string
	lang Language
}

func (d *fakeDoc) WholeRegion() region.Region { return span{d.text, 0, len(d.text)} }
func (d *fakeDoc) Language() Language         { return d.lang }

type seqProg struct {
	name string
	f    func(in span) []span
}

func (p seqProg) Exec(st core.State) (core.Value, error) {
	var out []core.Value
	for _, s := range p.f(st.Input().(span)) {
		out = append(out, s)
	}
	return out, nil
}
func (p seqProg) String() string { return p.name }

type regProg struct {
	name string
	f    func(in span) (span, bool)
}

func (p regProg) Exec(st core.State) (core.Value, error) {
	s, ok := p.f(st.Input().(span))
	if !ok {
		return nil, core.ErrNoMatch
	}
	return s, nil
}
func (p regProg) String() string { return p.name }

// fakeLang owns a fixed candidate pool and returns the consistent ones.
type fakeLang struct {
	seqCandidates []seqProg
	regCandidates []regProg
}

func (l *fakeLang) SynthesizeSeqRegion(_ context.Context, exs []SeqRegionExample) []core.Program {
	var out []core.Program
	for _, p := range l.seqCandidates {
		ok := true
		for _, ex := range exs {
			got, _ := ExtractSeq(p, ex.Input)
			if !isSubseq(ex.Positive, got) {
				ok = false
				break
			}
			for _, n := range ex.Negative {
				for _, g := range got {
					if g.Overlaps(n) {
						ok = false
					}
				}
			}
			if !ok {
				break
			}
		}
		if ok {
			out = append(out, p)
		}
	}
	return out
}

func (l *fakeLang) SynthesizeRegion(_ context.Context, exs []RegionExample) []core.Program {
	var out []core.Program
	for _, p := range l.regCandidates {
		ok := true
		for _, ex := range exs {
			got, err := Extract(p, ex.Input)
			if err != nil || got != ex.Output {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, p)
		}
	}
	return out
}

func isSubseq(sub, seq []region.Region) bool {
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

// helpers to build spans of the standard fake document
const fakeText = "alpha 1\nbeta 22\ngamma 333\n"

func lineSpans(doc string) []span {
	var out []span
	start := 0
	for i := 0; i <= len(doc); i++ {
		if i == len(doc) || doc[i] == '\n' {
			if i > start {
				out = append(out, span{doc, start, i})
			}
			start = i + 1
		}
	}
	return out
}

func wordOfLine(l span) (span, bool) {
	i := strings.IndexByte(l.Value(), ' ')
	if i < 0 {
		return span{}, false
	}
	return span{l.doc, l.s, l.s + i}, true
}

func numberOfLine(l span) (span, bool) {
	i := strings.IndexByte(l.Value(), ' ')
	if i < 0 {
		return span{}, false
	}
	return span{l.doc, l.s + i + 1, l.e}, true
}

func newFakeDomain(text string) (*fakeDoc, *fakeLang) {
	lang := &fakeLang{}
	doc := &fakeDoc{text: text, lang: lang}
	lang.seqCandidates = []seqProg{
		{"AllLines", func(in span) []span {
			var out []span
			for _, l := range lineSpans(in.doc) {
				if in.Contains(l) {
					out = append(out, l)
				}
			}
			return out
		}},
		{"EvenLines", func(in span) []span {
			var out []span
			for i, l := range lineSpans(in.doc) {
				if i%2 == 0 && in.Contains(l) {
					out = append(out, l)
				}
			}
			return out
		}},
		{"AllWords", func(in span) []span {
			var out []span
			for _, l := range lineSpans(in.doc) {
				if w, ok := wordOfLine(l); ok && in.Contains(w) {
					out = append(out, w)
				}
			}
			return out
		}},
		{"AllNumbers", func(in span) []span {
			var out []span
			for _, l := range lineSpans(in.doc) {
				if n, ok := numberOfLine(l); ok && in.Contains(n) {
					out = append(out, n)
				}
			}
			return out
		}},
	}
	lang.regCandidates = []regProg{
		{"WordInLine", func(in span) (span, bool) { return wordOfLine(in) }},
		{"NumberInLine", func(in span) (span, bool) { return numberOfLine(in) }},
		{"WholeInput", func(in span) (span, bool) { return in, true }},
	}
	return doc, lang
}

const rowSchema = `Seq([row] Struct(Name: [a] String, Value: [b] Int))`

// ---- Highlighting tests ----

// Each Highlighting test runs once per region kind (spanKinds): span takes
// the pairwise reference path, ispan the interval path.

func TestHighlightingAddDedupesAndSorts(t *testing.T) {
	for _, k := range spanKinds {
		t.Run(k.name, func(t *testing.T) {
			cr := Highlighting{}
			a := k.mk(8, 15)
			b := k.mk(0, 7)
			cr.Add("x", a, b, a)
			if len(cr["x"]) != 2 {
				t.Fatalf("Add kept %d regions, want 2", len(cr["x"]))
			}
			if cr["x"][0] != b {
				t.Fatal("regions not sorted in document order")
			}
			cr.Add("x", k.mk(3, 4), b)
			if got := fmt.Sprint(cr["x"]); got != "[[0,7) [3,4) [8,15)]" {
				t.Fatalf("second Add = %s", got)
			}
			cr.Add("y")
			if _, ok := cr["y"]; ok {
				t.Fatal("Add with no regions created a color")
			}
		})
	}
}

func TestConsistencyOverlap(t *testing.T) {
	m := schema.MustParse(rowSchema)
	for _, k := range spanKinds {
		t.Run(k.name, func(t *testing.T) {
			cr := Highlighting{}
			cr.Add("row", k.mk(0, 10))
			cr.Add("a", k.mk(5, 15)) // overlaps the row without nesting
			if err := cr.ConsistentWith(m); err == nil {
				t.Fatal("overlapping non-nested regions accepted")
			}
		})
	}
}

func TestConsistencyAncestorNesting(t *testing.T) {
	m := schema.MustParse(rowSchema)
	for _, k := range spanKinds {
		t.Run(k.name, func(t *testing.T) {
			cr := Highlighting{}
			cr.Add("row", k.mk(0, 7))
			cr.Add("a", k.mk(8, 12)) // outside every row region
			if err := cr.ConsistentWith(m); err == nil {
				t.Fatal("orphan field region accepted")
			}
		})
	}
}

func TestConsistencyStructMultiplicity(t *testing.T) {
	m := schema.MustParse(rowSchema)
	for _, k := range spanKinds {
		t.Run(k.name, func(t *testing.T) {
			cr := Highlighting{}
			cr.Add("row", k.mk(0, 7))
			cr.Add("a", k.mk(0, 2), k.mk(3, 5)) // two a's in one row
			if err := cr.ConsistentWith(m); err == nil {
				t.Fatal("two struct-field regions in one ancestor accepted")
			}
		})
	}
}

func TestConsistencyLeafTypes(t *testing.T) {
	m := schema.MustParse(rowSchema)
	for _, k := range spanKinds {
		t.Run(k.name, func(t *testing.T) {
			cr := Highlighting{}
			cr.Add("row", k.mk(0, 7))
			cr.Add("b", k.mk(0, 5)) // "alpha" is not an Int
			if err := cr.ConsistentWith(m); err == nil {
				t.Fatal("ill-typed leaf value accepted")
			}
			cr2 := Highlighting{}
			cr2.Add("row", k.mk(0, 7))
			cr2.Add("b", k.mk(6, 7)) // "1"
			if err := cr2.ConsistentWith(m); err != nil {
				t.Fatalf("well-typed highlighting rejected: %v", err)
			}
		})
	}
}

func TestConsistencySequenceAllowsMany(t *testing.T) {
	m := schema.MustParse(rowSchema)
	for _, k := range spanKinds {
		t.Run(k.name, func(t *testing.T) {
			cr := Highlighting{}
			cr.Add("row", k.mk(0, 7), k.mk(8, 15))
			if err := cr.ConsistentWith(m); err != nil {
				t.Fatalf("many sequence regions rejected: %v", err)
			}
		})
	}
}

// ---- full session flow ----

func TestSessionEndToEnd(t *testing.T) {
	doc, _ := newFakeDomain(fakeText)
	m := schema.MustParse(rowSchema)
	s := NewSession(doc, m)

	lines := lineSpans(fakeText)

	// Field "row": one positive example, the first line.
	if err := s.AddPositive("row", lines[0]); err != nil {
		t.Fatal(err)
	}
	fp, inferred, err := s.Learn("row")
	if err != nil {
		t.Fatal(err)
	}
	if fp.Ancestor != nil || !fp.IsSeq() {
		t.Fatalf("row program: %s", fp)
	}
	if len(inferred) != 2 { // EvenLines is tighter and ranked consistent
		// Either AllLines (3) or EvenLines (2) may come first depending on
		// ranking; accept both but verify consistency with the example.
		if len(inferred) != 3 {
			t.Fatalf("inferred %d row regions", len(inferred))
		}
	}
	// Negative example: strike the second line if it was highlighted; to
	// force AllLines vs EvenLines disambiguation, give line 2 as positive.
	if err := s.AddPositive("row", lines[1]); err != nil {
		t.Fatal(err)
	}
	_, inferred, err = s.Learn("row")
	if err != nil {
		t.Fatal(err)
	}
	if len(inferred) != 3 {
		t.Fatalf("after second example, inferred %d rows, want 3", len(inferred))
	}
	if err := s.Commit("row"); err != nil {
		t.Fatal(err)
	}
	if !s.Materialized("row") {
		t.Fatal("row not materialized")
	}

	// Field "a" relative to the materialized row structure-ancestor.
	w0, _ := wordOfLine(lines[0])
	if err := s.AddPositive("a", w0); err != nil {
		t.Fatal(err)
	}
	fpA, inferredA, err := s.Learn("a")
	if err != nil {
		t.Fatal(err)
	}
	if fpA.Ancestor == nil || fpA.Ancestor.Color() != "row" || fpA.IsSeq() {
		t.Fatalf("field a should learn relative to row: %s", fpA)
	}
	if len(inferredA) != 3 {
		t.Fatalf("inferred %d a-regions, want 3", len(inferredA))
	}
	if err := s.Commit("a"); err != nil {
		t.Fatal(err)
	}

	// Field "b".
	n0, _ := numberOfLine(lines[0])
	if err := s.AddPositive("b", n0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Learn("b"); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit("b"); err != nil {
		t.Fatal(err)
	}

	// Assemble and run.
	inst, err := s.Extract()
	if err != nil {
		t.Fatal(err)
	}
	if inst.Kind != SeqInstance || len(inst.Items) != 3 {
		t.Fatalf("instance = %s", inst)
	}
	first := inst.Items[0]
	if first.Kind != StructInstance || len(first.Elements) != 2 {
		t.Fatalf("first row = %s", first)
	}
	if first.Elements[0].Value.Text != "alpha" || first.Elements[1].Value.Text != "1" {
		t.Fatalf("first row = %s", first)
	}

	// Run the same program on a similar document.
	doc2, _ := newFakeDomain("delta 4\nepsilon 55\n")
	q, err := s.Program()
	if err != nil {
		t.Fatal(err)
	}
	inst2, _, err := q.Run(doc2)
	if err != nil {
		t.Fatal(err)
	}
	if len(inst2.Items) != 2 || inst2.Items[1].Elements[0].Value.Text != "epsilon" {
		t.Fatalf("transfer run = %s", inst2)
	}
}

func TestSessionNegativeExamples(t *testing.T) {
	doc, _ := newFakeDomain(fakeText)
	m := schema.MustParse(`Seq([row] String)`)
	s := NewSession(doc, m)
	lines := lineSpans(fakeText)
	if err := s.AddPositive("row", lines[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.AddNegative("row", lines[1]); err != nil {
		t.Fatal(err)
	}
	fp, inferred, err := s.Learn("row")
	if err != nil {
		t.Fatal(err)
	}
	if fp.P.String() != "EvenLines" {
		t.Fatalf("learned %s, want EvenLines", fp.P)
	}
	if len(inferred) != 2 {
		t.Fatalf("inferred %d regions, want 2", len(inferred))
	}
}

func TestSessionErrors(t *testing.T) {
	doc, _ := newFakeDomain(fakeText)
	m := schema.MustParse(rowSchema)
	s := NewSession(doc, m)

	if err := s.AddPositive("nosuch", span{fakeText, 0, 1}); err == nil {
		t.Fatal("unknown color accepted")
	}
	if err := s.AddNegative("nosuch", span{fakeText, 0, 1}); err == nil {
		t.Fatal("unknown color accepted")
	}
	if _, _, err := s.Learn("row"); err == nil {
		t.Fatal("Learn without examples should fail")
	}
	if err := s.Commit("row"); err == nil {
		t.Fatal("Commit without Learn should fail")
	}
	if _, err := s.Program(); err == nil {
		t.Fatal("Program with unmaterialized fields should fail")
	}
	if _, err := s.Extract(); err == nil {
		t.Fatal("Extract with unmaterialized fields should fail")
	}
}

func TestSessionLearnTwiceAfterMaterialize(t *testing.T) {
	doc, _ := newFakeDomain(fakeText)
	m := schema.MustParse(`Seq([row] String)`)
	s := NewSession(doc, m)
	lines := lineSpans(fakeText)
	s.AddPositive("row", lines[0])
	s.AddPositive("row", lines[1])
	if _, _, err := s.Learn("row"); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit("row"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Learn("row"); err == nil {
		t.Fatal("Learn on a materialized field should fail")
	}
}

func TestSessionClearExamples(t *testing.T) {
	doc, _ := newFakeDomain(fakeText)
	m := schema.MustParse(`Seq([row] String)`)
	s := NewSession(doc, m)
	s.AddPositive("row", lineSpans(fakeText)[0])
	s.ClearExamples("row")
	if _, _, err := s.Learn("row"); err == nil {
		t.Fatal("Learn after ClearExamples should fail for lack of examples")
	}
}

func TestSynthesizeFieldProgramNoAncestorAvailable(t *testing.T) {
	doc, lang := newFakeDomain(fakeText)
	lang.seqCandidates = nil // nothing learnable at ⊥
	m := schema.MustParse(rowSchema)
	fi := m.FieldByColor("row")
	_, err := SynthesizeFieldProgram(doc, m, Highlighting{}, fi,
		[]region.Region{lineSpans(fakeText)[0]}, nil, map[string]bool{})
	if err == nil {
		t.Fatal("expected failure with empty candidate pool")
	}
}

func TestSynthesizeFieldProgramRejectsTwoPositivesInStructAncestor(t *testing.T) {
	doc, _ := newFakeDomain(fakeText)
	m := schema.MustParse(rowSchema)
	lines := lineSpans(fakeText)
	cr := Highlighting{}
	cr.Add("row", lines[0], lines[1], lines[2])
	w0, _ := wordOfLine(lines[0])
	n0, _ := numberOfLine(lines[0])
	fi := m.FieldByColor("a")
	_, err := SynthesizeFieldProgram(doc, m, cr, fi,
		[]region.Region{w0, n0}, nil, map[string]bool{"row": true})
	if err == nil {
		t.Fatal("two positives inside one struct-ancestor region must be rejected")
	}
}

// ---- Fill and instance rendering ----

func TestFillWithNullField(t *testing.T) {
	m := schema.MustParse(`Seq([row] Struct(Name: [a] String, Value: [b] Int))`)
	lines := lineSpans(fakeText)
	cr := Highlighting{}
	cr.Add("row", lines[0], lines[1])
	w0, _ := wordOfLine(lines[0])
	cr.Add("a", w0) // no "a" in row 1, no "b" anywhere
	whole := span{fakeText, 0, len(fakeText)}
	inst := Fill(m, cr, whole)
	if len(inst.Items) != 2 {
		t.Fatalf("items = %d", len(inst.Items))
	}
	if inst.Items[0].Elements[0].Value.Text != "alpha" {
		t.Fatalf("row0 name = %s", inst.Items[0])
	}
	if !inst.Items[0].Elements[1].Value.IsNull() {
		t.Fatal("missing b should be null")
	}
	if !inst.Items[1].Elements[0].Value.IsNull() {
		t.Fatal("missing a in row1 should be null")
	}
	str := inst.String()
	if !strings.Contains(str, "⊥") || !strings.Contains(str, `"alpha"`) {
		t.Fatalf("instance String = %s", str)
	}
}

func TestFillTopStruct(t *testing.T) {
	m := schema.MustParse(`Struct(First: [a] String)`)
	lines := lineSpans(fakeText)
	w0, _ := wordOfLine(lines[0])
	cr := Highlighting{}
	cr.Add("a", w0)
	inst := Fill(m, cr, span{fakeText, 0, len(fakeText)})
	if inst.Kind != StructInstance || inst.Elements[0].Value.Text != "alpha" {
		t.Fatalf("inst = %s", inst)
	}
}

func TestInstanceStringForms(t *testing.T) {
	var null *Instance
	if !null.IsNull() {
		t.Fatal("nil instance should be null")
	}
	seq := &Instance{Kind: SeqInstance, Items: []*Instance{
		{Kind: LeafInstance, Text: "x"},
		{Kind: NullInstance},
	}}
	if got := seq.String(); got != `["x", ⊥]` {
		t.Fatalf("String = %q", got)
	}
}

func TestSchemaProgramRunInconsistent(t *testing.T) {
	// A program whose output violates the schema must fail at Run.
	doc, _ := newFakeDomain(fakeText)
	m := schema.MustParse(rowSchema)
	badSeq := seqProg{"Bad", func(in span) []span {
		// two overlapping non-nested regions
		return []span{{in.doc, 0, 10}, {in.doc, 5, 14}}
	}}
	q := &SchemaProgram{Schema: m, Fields: map[string]*FieldProgram{
		"row": {Field: m.FieldByColor("row"), P: badSeq},
		"a":   {Field: m.FieldByColor("a"), Ancestor: m.FieldByColor("row"), P: regProg{"none", func(in span) (span, bool) { return span{}, false }}},
		"b":   {Field: m.FieldByColor("b"), Ancestor: m.FieldByColor("row"), P: regProg{"none", func(in span) (span, bool) { return span{}, false }}},
	}}
	if _, _, err := q.Run(doc); err == nil {
		t.Fatal("inconsistent run result accepted")
	}
}

func TestSchemaProgramIncomplete(t *testing.T) {
	m := schema.MustParse(rowSchema)
	q := &SchemaProgram{Schema: m, Fields: map[string]*FieldProgram{}}
	if err := q.Complete(); err == nil {
		t.Fatal("incomplete program accepted")
	}
	doc, _ := newFakeDomain(fakeText)
	if _, _, err := q.Run(doc); err == nil {
		t.Fatal("running incomplete program should fail")
	}
}

func TestSchemaProgramString(t *testing.T) {
	doc, _ := newFakeDomain(fakeText)
	m := schema.MustParse(`Seq([row] String)`)
	s := NewSession(doc, m)
	s.AddPositive("row", lineSpans(fakeText)[0])
	s.AddPositive("row", lineSpans(fakeText)[1])
	if _, _, err := s.Learn("row"); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit("row"); err != nil {
		t.Fatal(err)
	}
	q, err := s.Program()
	if err != nil {
		t.Fatal(err)
	}
	str := q.String()
	if !strings.Contains(str, "row") || !strings.Contains(str, "⊥") {
		t.Fatalf("program String = %q", str)
	}
}

func TestFieldProgramString(t *testing.T) {
	m := schema.MustParse(rowSchema)
	fp := &FieldProgram{Field: m.FieldByColor("a"), Ancestor: m.FieldByColor("row"),
		P: regProg{"WordInLine", nil}}
	if got := fp.String(); got != "(row, WordInLine)" {
		t.Fatalf("String = %q", got)
	}
}

// Span implements engine.Spanner for the fake domain.
func (d *fakeDoc) Span(a, b region.Region) (region.Region, error) {
	ar := a.(span)
	br := b.(span)
	out := span{doc: ar.doc, s: ar.s, e: ar.e}
	if br.s < out.s {
		out.s = br.s
	}
	if br.e > out.e {
		out.e = br.e
	}
	return out, nil
}

func TestInferStructureBottomUp(t *testing.T) {
	doc, _ := newFakeDomain(fakeText)
	m := schema.MustParse(rowSchema)
	s := NewSession(doc, m)
	lines := lineSpans(fakeText)

	// Materialize the leaves first (bottom-up order).
	w0, _ := wordOfLine(lines[0])
	w1, _ := wordOfLine(lines[1])
	if err := s.AddPositive("a", w0); err != nil {
		t.Fatal(err)
	}
	if err := s.AddPositive("a", w1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Learn("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit("a"); err != nil {
		t.Fatal(err)
	}
	n0, _ := numberOfLine(lines[0])
	if err := s.AddPositive("b", n0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Learn("b"); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit("b"); err != nil {
		t.Fatal(err)
	}

	// Infer the row structure with no examples at all.
	fp, inferred, err := s.InferStructure("row")
	if err != nil {
		t.Fatal(err)
	}
	if fp == nil || len(inferred) != 3 {
		t.Fatalf("inferred %d rows, want 3", len(inferred))
	}
	if err := s.Commit("row"); err != nil {
		t.Fatal(err)
	}
	inst, err := s.Extract()
	if err != nil {
		t.Fatal(err)
	}
	if len(inst.Items) != 3 || inst.Items[2].Elements[0].Value.Text != "gamma" {
		t.Fatalf("instance = %s", inst)
	}
}

func TestInferStructureErrors(t *testing.T) {
	doc, _ := newFakeDomain(fakeText)
	m := schema.MustParse(rowSchema)
	s := NewSession(doc, m)
	if _, _, err := s.InferStructure("a"); err == nil {
		t.Fatal("leaf field accepted")
	}
	if _, _, err := s.InferStructure("nosuch"); err == nil {
		t.Fatal("unknown color accepted")
	}
	if _, _, err := s.InferStructure("row"); err == nil {
		t.Fatal("inference without materialized children accepted")
	}
}

func TestSynthesizeFieldProgramRegionNegatives(t *testing.T) {
	// Region-program candidates that would re-extract a struck region must
	// be rejected even though the per-ancestor region API has no negative
	// channel of its own.
	doc, _ := newFakeDomain(fakeText)
	m := schema.MustParse(rowSchema)
	lines := lineSpans(fakeText)
	cr := Highlighting{}
	cr.Add("row", lines[0], lines[1], lines[2])

	w0, _ := wordOfLine(lines[0])
	n1, _ := numberOfLine(lines[1])
	fi := m.FieldByColor("a")
	// Without negatives, WordInLine is learnable from the single positive.
	fp, err := SynthesizeFieldProgram(doc, m, cr, fi,
		[]region.Region{w0}, nil, map[string]bool{"row": true})
	if err != nil {
		t.Fatal(err)
	}
	if fp.P.String() != "WordInLine" {
		t.Fatalf("learned %s", fp.P)
	}
	// Striking the word of line 1 kills WordInLine; nothing else extracts
	// w0, so synthesis must fail rather than return a violating program.
	w1, _ := wordOfLine(lines[1])
	if _, err := SynthesizeFieldProgram(doc, m, cr, fi,
		[]region.Region{w0}, []region.Region{w1}, map[string]bool{"row": true}); err == nil {
		t.Fatal("program violating a negative instance was accepted")
	}
	// A negative that no candidate touches changes nothing.
	fp, err = SynthesizeFieldProgram(doc, m, cr, fi,
		[]region.Region{w0}, []region.Region{n1}, map[string]bool{"row": true})
	if err != nil {
		t.Fatal(err)
	}
	if fp.P.String() != "WordInLine" {
		t.Fatalf("learned %s", fp.P)
	}
}

func TestConsistencyErrorDeterministic(t *testing.T) {
	// The overlap error names the first offending pair; with several
	// mutually overlapping colors, map-order iteration would make the
	// message (and therefore batch output records) flip between runs.
	m := schema.MustParse(rowSchema)
	for _, k := range spanKinds {
		t.Run(k.name, func(t *testing.T) {
			errs := map[string]bool{}
			for i := 0; i < 64; i++ {
				cr := Highlighting{}
				cr.Add("row", k.mk(0, 10))
				cr.Add("a", k.mk(5, 15))
				cr.Add("b", k.mk(7, 12))
				err := cr.ConsistentWith(m)
				if err == nil {
					t.Fatal("overlapping non-nested regions accepted")
				}
				errs[err.Error()] = true
			}
			if len(errs) != 1 {
				t.Fatalf("ConsistentWith produced %d distinct error messages across identical inputs: %v", len(errs), errs)
			}
		})
	}
}

package sheetlang

import (
	"context"
	"strings"
	"testing"

	"flashextract/internal/core"
	"flashextract/internal/engine"
	"flashextract/internal/region"
)

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
	d := fundedDoc()
	l := d.Language().(lang)
	progs := l.SynthesizeSeqRegion(context.Background(), []engine.SeqRegionExample{{
		Input:    d.WholeRegion(),
		Positive: []region.Region{d.CellAt(3, 2), d.CellAt(4, 2)},
		Negative: []region.Region{d.CellAt(5, 2)},
	}})
	if len(progs) == 0 {
		t.Fatal("no programs")
	}
	_, back, err := roundTrip(progs[0])
	if err != nil {
		t.Fatal(err)
	}
	orig := regionValues(extractSeq(t, progs[0], d.WholeRegion()))
	again := regionValues(extractSeq(t, back, d.WholeRegion()))
	if strings.Join(orig, "|") != strings.Join(again, "|") {
		t.Fatalf("round trip changed behaviour: %v vs %v", orig, again)
	}
}

func TestRecordProgramSerializationRoundTrip(t *testing.T) {
	d := fundedDoc()
	l := d.Language().(lang)
	progs := l.SynthesizeSeqRegion(context.Background(), []engine.SeqRegionExample{{
		Input:    d.WholeRegion(),
		Positive: []region.Region{d.Rect(3, 0, 3, 3), d.Rect(4, 0, 4, 3)},
		Negative: []region.Region{d.Rect(5, 0, 5, 3)},
	}})
	if len(progs) == 0 {
		t.Fatal("no programs")
	}
	_, back, err := roundTrip(progs[0])
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(extractSeq(t, back, d.WholeRegion())), len(extractSeq(t, progs[0], d.WholeRegion())); got != want {
		t.Fatalf("round trip changed record count: %d vs %d", got, want)
	}
}

func TestRegionProgramSerializationRoundTrip(t *testing.T) {
	d := fundedDoc()
	l := d.Language().(lang)
	for name, ex := range map[string]engine.RegionExample{
		"cell": {Input: d.Rect(3, 0, 3, 3), Output: d.CellAt(3, 2)},
		"rect": {Input: d.WholeRegion(), Output: d.Rect(2, 0, 5, 3)},
	} {
		progs := l.SynthesizeRegion(context.Background(), []engine.RegionExample{ex})
		if len(progs) == 0 {
			t.Fatalf("%s: no programs", name)
		}
		_, back, err := roundTrip(progs[0])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r1, _ := engine.Extract(progs[0], ex.Input)
		r2, _ := engine.Extract(back, ex.Input)
		if r1 == nil || r2 == nil || r1.Value() != r2.Value() {
			t.Fatalf("%s: behaviour changed: %v vs %v", name, r1, r2)
		}
	}
}

func TestCellTokSpecRoundTrip(t *testing.T) {
	toks := []CellTok{AnyCell, EmptyCell, NonEmptyCell, NumericCell, AlphaCell, LiteralCell("Subtotal")}
	s, err := marshalCellToks(toks)
	if err != nil {
		t.Fatal(err)
	}
	back, err := unmarshalCellToks(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(toks) {
		t.Fatalf("length changed: %d", len(back))
	}
	for i := range toks {
		if back[i].Name != toks[i].Name {
			t.Fatalf("token %d changed: %s vs %s", i, toks[i], back[i])
		}
		for _, content := range []string{"", "42", "Subtotal", "abc"} {
			if back[i].Matches(content) != toks[i].Matches(content) {
				t.Fatalf("token %s behaviour changed on %q", toks[i], content)
			}
		}
	}
}

func TestDecodeLeafErrorsSheet(t *testing.T) {
	for _, spec := range []core.ProgramSpec{
		{Op: "sheet.unknown"},
		{Op: "sheet.cellPred", Attrs: map[string]string{"toks": "junk"}},
		{Op: "sheet.cellPred", Attrs: map[string]string{"toks": `[{"kind":"std","value":"Any"}]`}}, // wrong count
		{Op: "sheet.cell", Attrs: map[string]string{"c": "junk"}},
		{Op: "sheet.cell", Attrs: map[string]string{"c": `{"kind":"weird"}`}},
		{Op: "sheet.cellPair", Attrs: map[string]string{"c1": "junk", "c2": "junk"}},
		{Op: "sheet.rowPred", Attrs: map[string]string{"toks": `[{"kind":"huh"}]`}},
	} {
		if _, err := decodeLeaf(spec); err == nil {
			t.Errorf("decodeLeaf(%s) succeeded, want error", spec.Op)
		}
	}
}

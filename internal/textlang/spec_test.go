package textlang

import (
	"context"
	"strings"
	"testing"

	"flashextract/internal/core"
	"flashextract/internal/engine"
	"flashextract/internal/region"
	"flashextract/internal/tokens"
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
	d := analyteDoc()
	l := d.Language().(*lang)
	be := mustFind(t, d, "Be", 0)
	sc := mustFind(t, d, "Sc", 0)
	progs := l.SynthesizeSeqRegion(context.Background(), []engine.SeqRegionExample{{
		Input:    d.WholeRegion(),
		Positive: []region.Region{be, sc},
	}})
	if len(progs) == 0 {
		t.Fatal("no programs")
	}
	data, p, err := roundTrip(progs[0].(engine.CoreSeq).P)
	if err != nil {
		t.Fatal(err)
	}
	back := engine.CoreSeq{P: p}
	orig := values(extractAll(t, progs[0], d.WholeRegion()))
	again := values(extractAll(t, back, d.WholeRegion()))
	if strings.Join(orig, "|") != strings.Join(again, "|") {
		t.Fatalf("round trip changed behaviour: %v vs %v", orig, again)
	}
	// The artifact must reference only serializable leaf operators.
	for _, frag := range []string{"text."} {
		if !strings.Contains(string(data), frag) {
			t.Fatalf("artifact missing %q:\n%s", frag, data)
		}
	}
}

func TestRegionProgramSerializationRoundTrip(t *testing.T) {
	d := analyteDoc()
	l := d.Language().(*lang)
	l0 := lineRegion(t, d, `""Be""`, 0)
	l1 := lineRegion(t, d, `""Sc""`, 0)
	mass0 := d.Region(l0.Start+len(`ICP,""Be"",`), l0.Start+len(`ICP,""Be"",9`))
	progs := l.SynthesizeRegion(context.Background(), []engine.RegionExample{{Input: l0, Output: mass0}})
	if len(progs) == 0 {
		t.Fatal("no programs")
	}
	_, p, err := roundTrip(progs[0].(engine.CoreRegion).P)
	if err != nil {
		t.Fatal(err)
	}
	back := engine.CoreRegion{P: p}
	r1, _ := progs[0].Extract(l1)
	r2, _ := back.Extract(l1)
	if r1 == nil || r2 == nil || r1.Value() != r2.Value() {
		t.Fatalf("round trip changed behaviour: %v vs %v", r1, r2)
	}
}

func TestLinePredSerializationAllKinds(t *testing.T) {
	d := NewDocument("a 1\nb 2\nc 3\n")
	whole := d.WholeRegion().(Region)
	lines := linesIn(whole)
	st := core.NewState(whole).Bind(lambdaVar, lines[1])
	for kind := predTrue; kind <= predSuccContains; kind++ {
		p := linePred{kind: kind}
		if kind != predTrue {
			p.r = tokens.Regex{tokens.Number}
			p.k = 1
		}
		spec, err := p.EncodeProgram()
		if err != nil {
			t.Fatalf("kind %d: %v", kind, err)
		}
		back, err := decodeLeaf(spec)
		if err != nil {
			t.Fatalf("kind %d decode: %v", kind, err)
		}
		v1, e1 := p.Exec(st)
		v2, e2 := back.Exec(st)
		if (e1 == nil) != (e2 == nil) || v1 != v2 {
			t.Fatalf("kind %d: behaviour changed (%v,%v vs %v,%v)", kind, v1, e1, v2, e2)
		}
		if back.String() != p.String() {
			t.Fatalf("kind %d: display changed: %s vs %s", kind, p, back)
		}
	}
}

func TestDecodeLeafErrors(t *testing.T) {
	for _, spec := range []core.ProgramSpec{
		{Op: "text.unknown"},
		{Op: "text.posSeq", Attrs: map[string]string{"rr": "junk"}},
		{Op: "text.linePair", Attrs: map[string]string{"p1": "junk", "p2": "junk"}},
		{Op: "text.pred", Attrs: map[string]string{"kind": "zzz"}},
		{Op: "text.pred", Attrs: map[string]string{"kind": "2", "r": "junk", "k": "1"}},
		{Op: "text.startPair", Attrs: map[string]string{"p": "junk"}},
	} {
		if _, err := decodeLeaf(spec); err == nil {
			t.Errorf("decodeLeaf(%s) succeeded, want error", spec.Op)
		}
	}
}

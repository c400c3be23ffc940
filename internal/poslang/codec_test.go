package poslang

import (
	"testing"

	"flashextract/internal/core"
	"flashextract/internal/tokens"
)

// TestCodecOps pins the codec names each dialect writes and reads: every
// program round-trips under its dialect's name, neither dialect reads the
// other's names, and Lweb, which has no λx: Pos(x, p), reads no
// web.linePos.
func TestCodecOps(t *testing.T) {
	p := tokens.RegPos{RR: tokens.RegexPair{Right: tokens.Regex{tokens.Number}}, K: -1}
	rr := tokens.RegexPair{Left: tokens.Regex{tokens.Number}}
	other := map[Dialect]Dialect{Text: Web, Web: Text}
	for _, tc := range []struct {
		d    Dialect
		prog core.Program
		op   string
	}{
		{Text, Text.PosSeq(rr), "text.posSeq"},
		{Text, Text.StartPair(p), "text.startPair"},
		{Text, Text.EndPair(p), "text.endPair"},
		{Text, Text.RegionPair(p, p), "text.regionPair"},
		{Text, Text.XPair(p, p), "text.linePair"},
		{Text, Text.XPos(p), "text.linePos"},
		{Web, Web.PosSeq(rr), "web.posSeq"},
		{Web, Web.StartPair(p), "web.startPair"},
		{Web, Web.EndPair(p), "web.endPair"},
		{Web, Web.RegionPair(p, p), "web.spanPair"},
		{Web, Web.XPair(p, p), "web.nodeSpanPair"},
	} {
		spec, err := core.Encode(tc.prog)
		if err != nil || spec.Op != tc.op {
			t.Fatalf("%s encodes as %q, %v, want %q", tc.prog, spec.Op, err, tc.op)
		}
		back, ok, err := tc.d.Decode(spec)
		if !ok || err != nil || back.String() != tc.prog.String() {
			t.Fatalf("%s decodes as %v, %v, %v", tc.op, back, ok, err)
		}
		if _, ok, _ := other[tc.d].Decode(spec); ok {
			t.Fatalf("%s decodes in the other dialect", tc.op)
		}
	}
	spec, err := core.Encode(Text.XPos(p))
	if err != nil {
		t.Fatal(err)
	}
	spec.Op = "web.linePos"
	if back, ok, err := Web.Decode(spec); ok {
		t.Fatalf("web.linePos decodes as %v, %v", back, err)
	}
}

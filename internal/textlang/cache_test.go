package textlang

import (
	"context"
	"math/rand"
	"testing"

	"flashextract/internal/engine"
	"flashextract/internal/region"
	"flashextract/internal/tokens"
)

// TestCachedExecMatchesDirect checks that routing program execution
// through the document cache is observationally identical to evaluating
// attributes and regex pairs directly on the text slices.
func TestCachedExecMatchesDirect(t *testing.T) {
	const text = "a: 10\nbb: 220\nccc: 3999\n\ndddd: 17\n"
	d := NewDocument(text)
	rng := rand.New(rand.NewSource(11))
	attrs := []tokens.Attr{
		tokens.AbsPos{K: 1},
		tokens.AbsPos{K: -1},
		tokens.RegPos{RR: tokens.RegexPair{Left: tokens.Regex{tokens.Colon, tokens.Space}}, K: 1},
		tokens.RegPos{RR: tokens.RegexPair{Right: tokens.Regex{tokens.Number}}, K: -1},
	}
	pairs := []tokens.RegexPair{
		{Left: tokens.Regex{tokens.Colon, tokens.Space}, Right: tokens.Regex{tokens.Number}},
		{Left: tokens.Regex{tokens.Word}},
		{Right: tokens.Regex{tokens.Lower}},
	}
	for trial := 0; trial < 300; trial++ {
		lo := rng.Intn(len(text))
		hi := lo + rng.Intn(len(text)-lo)
		for _, a := range attrs {
			want, wantErr := a.Eval(text[lo:hi])
			got, gotErr := d.cache.EvalAttr(lo, hi, a)
			if (wantErr == nil) != (gotErr == nil) || (wantErr == nil && got != want) {
				t.Fatalf("EvalAttr(%d,%d,%s) = (%d,%v), direct (%d,%v)", lo, hi, a, got, gotErr, want, wantErr)
			}
		}
		for _, rr := range pairs {
			want := rr.Positions(text[lo:hi])
			got := d.cache.Positions(lo, hi, rr)
			if len(got) != len(want) {
				t.Fatalf("Positions(%d,%d,%s) = %v, direct %v", lo, hi, rr, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("Positions(%d,%d,%s) = %v, direct %v", lo, hi, rr, got, want)
				}
			}
		}
	}
}

// TestSynthesisDeterministicWithWarmCache re-runs synthesis on the same
// document and requires the identical ranked program lists both times —
// the warm cache must not change what is learned, only how fast. A fresh
// document (cold cache) must also agree.
func TestSynthesisDeterministicWithWarmCache(t *testing.T) {
	const text = "name: alice\nrole: admin\nname: bob\nrole: user\nname: carol\n"
	run := func(d *Document) []string {
		lang := d.Language()
		a, _ := d.FindRegion("alice", 0)
		b, _ := d.FindRegion("bob", 0)
		progs := lang.SynthesizeSeqRegion(context.Background(), []engine.SeqRegionExample{{
			Input:    d.WholeRegion(),
			Positive: []region.Region{a, b},
		}})
		out := make([]string, len(progs))
		for i, p := range progs {
			out[i] = p.String()
		}
		return out
	}
	d := NewDocument(text)
	cold := run(d)
	warm := run(d)
	fresh := run(NewDocument(text))
	if len(cold) == 0 {
		t.Fatal("no programs learned")
	}
	for i := range cold {
		if cold[i] != warm[i] || cold[i] != fresh[i] {
			t.Fatalf("program %d differs: cold %q, warm %q, fresh %q", i, cold[i], warm[i], fresh[i])
		}
	}
	if len(cold) != len(warm) || len(cold) != len(fresh) {
		t.Fatalf("list lengths differ: %d cold, %d warm, %d fresh", len(cold), len(warm), len(fresh))
	}
}

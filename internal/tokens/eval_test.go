package tokens

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// fuzzToks is every standard token plus literals that overlap themselves
// ("aa" in "aaa", "a a" in "a a a", "::" in ":::") or span classes.
var fuzzToks = append(append([]Token(nil), Standard...),
	Literal("aa"), Literal("a a"), Literal("::"), Literal("0 ,"), Literal("\n"), Literal("ab"))

// byteReader hands out fuzzer bytes, then zeros once they run out.
type byteReader struct{ b []byte }

func (r *byteReader) next() int {
	if len(r.b) == 0 {
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return int(v)
}

// fuzzText draws a text over an alphabet that lets every standard token
// and every literal of fuzzToks occur, weighted toward runs.
func fuzzText(r *byteReader) string {
	const alphabet = "aaaaaabZZ009   \t\n,.;:::-_/\\'\"()[]<>=+*#$%&@"
	n := r.next() % 97
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[r.next()%len(alphabet)]
	}
	return string(b)
}

// fuzzRange draws a range of text: empty, arbitrary, one cutting a run of
// some token at lo and/or hi, or the whole document.
func fuzzRange(r *byteReader, text string) (lo, hi int) {
	n := len(text)
	switch r.next() % 4 {
	case 0:
		lo = r.next() % (n + 1)
		return lo, lo
	case 1:
		lo = r.next() % (n + 1)
		return lo, lo + r.next()%(n-lo+1)
	case 2:
		w := scanBoundaries(text, fuzzToks[r.next()%len(fuzzToks)])
		if len(w.pre) == 0 {
			return 0, n
		}
		k := r.next() % len(w.pre)
		s, e := w.pre[k], w.suf[k]
		mid := s + r.next()%(e-s+1)
		switch r.next() % 3 {
		case 0:
			return mid, n
		case 1:
			return 0, mid
		default:
			return min(s+1, mid), max(e-1, mid)
		}
	default:
		return 0, n
	}
}

func fuzzRegex(r *byteReader) Regex {
	var re Regex
	for i := r.next() % (MaxRegexTokens + 1); i > 0; i-- {
		re = append(re, fuzzToks[r.next()%len(fuzzToks)])
	}
	return re
}

// checkCacheEval compares the cache's EvalAttr, Positions and CountIn over
// text[lo:hi] with the reference RegPos.Eval, RegexPair.Positions and
// CountMatches on the slice; CountIn counts each side of the pair and
// their concatenation.
func checkCacheEval(t *testing.T, c *Cache, lo, hi int, a RegPos) {
	t.Helper()
	s := c.Text()[lo:hi]
	want, wantErr := a.Eval(s)
	got, gotErr := c.EvalAttr(lo, hi, a)
	if (wantErr == nil) != (gotErr == nil) || (wantErr == nil && got != want) {
		t.Fatalf("EvalAttr(%d, %d, %s) over %q = (%d, %v), Eval = (%d, %v)", lo, hi, a, c.Text(), got, gotErr, want, wantErr)
	}
	if got, want := c.Positions(lo, hi, a.RR), a.RR.Positions(s); !equalPositions(got, want) {
		t.Fatalf("Positions(%d, %d, %s) over %q = %v, want %v", lo, hi, a.RR, c.Text(), got, want)
	}
	both := append(append(Regex(nil), a.RR.Left...), a.RR.Right...)
	for _, r := range []Regex{a.RR.Left, a.RR.Right, both} {
		if got, want := c.CountIn(lo, hi, r), CountMatches(r, s); got != want {
			t.Fatalf("CountIn(%d, %d, %s) over %q = %d, want %d", lo, hi, r, c.Text(), got, want)
		}
	}
}

// FuzzCacheEval checks the cache's evaluation kernel against the reference
// semantics on fuzzer-built texts, ranges, regex pairs over fuzzToks and
// K in [-3, 3], on a cold cache (whose first call for a token may be a
// sub-range) and on a warm one holding every token's boundary entry and
// earlier answers. Its 64 random seeds (512 queries) run with the plain
// test suite too.
func FuzzCacheEval(f *testing.F) {
	for seed := int64(1); seed <= 64; seed++ {
		b := make([]byte, 160)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		r := &byteReader{b}
		text := fuzzText(r)
		warm := NewCache(text)
		for _, tok := range fuzzToks {
			warm.entry(tok)
		}
		for q := 0; q < 8; q++ {
			lo, hi := fuzzRange(r, text)
			a := RegPos{RR: RegexPair{Left: fuzzRegex(r), Right: fuzzRegex(r)}, K: r.next()%7 - 3}
			checkCacheEval(t, NewCache(text), lo, hi, a)
			checkCacheEval(t, warm, lo, hi, a)
			checkCacheEval(t, warm, lo, hi, a) // memo hits
		}
	})
}

// TestEvalAttrAllocatesNothing pins the run path: once the anchor tokens'
// boundary entries exist, evaluating a matching RegPos on each line of a
// document — every line a range the cache has not seen — allocates
// nothing and leaves no entry behind.
func TestEvalAttrAllocatesNothing(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&sb, "2014-01-%02d INFO node%d: sent %d bytes, ok\n", i%28+1, i, i*37)
	}
	text := sb.String()
	var lines [][2]int
	for lo := 0; lo < len(text); {
		hi := lo + strings.IndexByte(text[lo:], '\n')
		lines = append(lines, [2]int{lo, hi})
		lo = hi + 1
	}
	attrs := []Attr{
		RegPos{RR: RegexPair{Left: Regex{Colon, Space}, Right: Regex{Lower}}, K: 1},
		RegPos{RR: RegexPair{Left: Regex{Space}, Right: Regex{Number}}, K: -1},
		RegPos{RR: RegexPair{Right: Regex{Number}}, K: 2},
		RegPos{RR: RegexPair{Left: Regex{Literal(", ")}}, K: -1},
	}
	c := NewCache(text)
	for _, tok := range []Token{Space, Lower, Number, Literal(", ")} {
		c.entry(tok)
	}
	entries := c.Stats().Entries

	i := 0
	allocs := testing.AllocsPerRun(len(lines)-1, func() {
		for _, a := range attrs {
			if _, err := c.EvalAttr(lines[i][0], lines[i][1], a); err != nil {
				t.Fatalf("line %d: %v", i, err)
			}
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("EvalAttr allocated %.2f times per line, want 0", allocs)
	}
	if got := c.Stats().Entries; got != entries {
		t.Fatalf("EvalAttr stored entries: %d -> %d", entries, got)
	}
	for _, l := range lines {
		for _, a := range attrs {
			want, _ := a.Eval(text[l[0]:l[1]])
			if got, _ := c.EvalAttr(l[0], l[1], a); got != want {
				t.Fatalf("EvalAttr(%d, %d, %s) = %d, Eval = %d", l[0], l[1], a, got, want)
			}
		}
	}
}

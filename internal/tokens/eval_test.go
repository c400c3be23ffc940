package tokens

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
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

// checkBoundEval evaluates one AttrEval of a and one CountEval of r over
// the ranges in the order given, against RegPos.Eval and CountMatches on
// each slice: whatever the order, the window searched from the previous
// range must be the range's own.
func checkBoundEval(t *testing.T, c *Cache, ranges [][2]int, a RegPos, r Regex) {
	t.Helper()
	ae, ce := NewAttrEval(a), NewCountEval(r)
	for _, rg := range ranges {
		lo, hi := rg[0], rg[1]
		s := c.Text()[lo:hi]
		want, wantErr := a.Eval(s)
		got, gotErr := ae.Eval(c, lo, hi)
		if (wantErr == nil) != (gotErr == nil) || (wantErr == nil && got != want) {
			t.Fatalf("bound Eval(%d, %d) of %s over %q in %v = (%d, %v), Eval = (%d, %v)", lo, hi, a, c.Text(), ranges, got, gotErr, want, wantErr)
		}
		if got, want := ce.Count(c, lo, hi), CountMatches(r, s); got != want {
			t.Fatalf("bound Count(%d, %d) of %s over %q in %v = %d, want %d", lo, hi, r, c.Text(), ranges, got, want)
		}
	}
}

// FuzzCacheEval checks the cache's evaluation kernel against the reference
// semantics on fuzzer-built texts, ranges, regex pairs over fuzzToks and
// K in [-3, 3], on a cold cache (whose first call for a token may be a
// sub-range) and on a warm one holding every token's boundary entry and
// earlier answers. It then evaluates one bound attribute and one bound
// count over the input's ranges and the text's lines, in ascending,
// descending and fuzzer-shuffled order. Its 64 random seeds (512 queries)
// run with the plain test suite too.
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
		var ranges [][2]int
		var attrs []RegPos
		for q := 0; q < 8; q++ {
			lo, hi := fuzzRange(r, text)
			a := RegPos{RR: RegexPair{Left: fuzzRegex(r), Right: fuzzRegex(r)}, K: r.next()%7 - 3}
			checkCacheEval(t, NewCache(text), lo, hi, a)
			checkCacheEval(t, warm, lo, hi, a)
			checkCacheEval(t, warm, lo, hi, a) // memo hits
			ranges, attrs = append(ranges, [2]int{lo, hi}), append(attrs, a)
		}
		for lo := 0; lo <= len(text); {
			hi := lo + strings.IndexByte(text[lo:]+"\n", '\n')
			ranges = append(ranges, [2]int{lo, hi})
			lo = hi + 1
		}
		a, re := attrs[r.next()%len(attrs)], fuzzRegex(r)
		slices.SortFunc(ranges, func(x, y [2]int) int { return cmp.Or(x[0]-y[0], x[1]-y[1]) })
		desc := slices.Clone(ranges)
		slices.Reverse(desc)
		shuffled := slices.Clone(ranges)
		for i := len(shuffled) - 1; i > 0; i-- {
			j := r.next() % (i + 1)
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		}
		for _, order := range [][][2]int{ranges, desc, shuffled} {
			checkBoundEval(t, NewCache(text), order, a, re)
			checkBoundEval(t, warm, order, a, re)
		}
	})
}

// TestEvalsAcrossCaches moves one AttrEval and one CountEval back and
// forth between the lines of two documents: each change of cache must
// drop the anchors of the other.
func TestEvalsAcrossCaches(t *testing.T) {
	texts := []string{"a1 b22 c333\nd4 e55\nf6\n", "x 7, y 8\n\nz 9, 10, 11 w\nv\n"}
	caches := []*Cache{NewCache(texts[0]), NewCache(texts[1])}
	lines := make([][][2]int, 2)
	for d, text := range texts {
		for lo := 0; lo < len(text); {
			hi := lo + strings.IndexByte(text[lo:], '\n')
			lines[d] = append(lines[d], [2]int{lo, hi})
			lo = hi + 1
		}
	}
	for _, a := range []RegPos{
		{RR: RegexPair{Left: Regex{Lower}, Right: Regex{Number}}, K: 1},
		{RR: RegexPair{Left: Regex{Number}}, K: -1},
		{RR: RegexPair{Right: Regex{Space}}, K: 1},
	} {
		ae, ce := NewAttrEval(a), NewCountEval(a.RR.Left)
		for i := 0; i < 4; i++ {
			for d := range texts {
				l := lines[d][i%len(lines[d])]
				s := texts[d][l[0]:l[1]]
				want, wantErr := a.Eval(s)
				got, gotErr := ae.Eval(caches[d], l[0], l[1])
				if (wantErr == nil) != (gotErr == nil) || (wantErr == nil && got != want) {
					t.Fatalf("Eval of %s on %q = (%d, %v), want (%d, %v)", a, s, got, gotErr, want, wantErr)
				}
				if got, want := ce.Count(caches[d], l[0], l[1]), CountMatches(a.RR.Left, s); got != want {
					t.Fatalf("Count of %s on %q = %d, want %d", a.RR.Left, s, got, want)
				}
			}
		}
	}
}

// TestSeekMatchesBinarySearch checks the galloping search against a
// binary search of the whole list, for every key around a sorted list and
// every hint, including hints past the answer.
func TestSeekMatchesBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		xs := make([]int, rng.Intn(40))
		for i := range xs {
			xs[i] = rng.Intn(100)
		}
		slices.Sort(xs)
		xs = slices.Compact(xs)
		for x := -1; x <= 101; x++ {
			want, _ := slices.BinarySearch(xs, x)
			for h := 0; h <= len(xs); h++ {
				if got := seek(xs, x, h); got != want {
					t.Fatalf("seek(%v, %d, %d) = %d, want %d", xs, x, h, got, want)
				}
			}
		}
	}
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

	// Bound once, the evaluators walk every line without allocating either.
	evals := make([]AttrEval, len(attrs))
	for k, a := range attrs {
		evals[k] = NewAttrEval(a)
	}
	i = 0
	allocs = testing.AllocsPerRun(len(lines)-1, func() {
		for k := range evals {
			if _, err := evals[k].Eval(c, lines[i][0], lines[i][1]); err != nil {
				t.Fatalf("line %d: %v", i, err)
			}
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("AttrEval.Eval allocated %.2f times per line, want 0", allocs)
	}
	for k := range evals {
		evals[k] = NewAttrEval(attrs[k])
	}
	for _, l := range lines {
		for k, a := range attrs {
			want, _ := a.Eval(text[l[0]:l[1]])
			if got, _ := evals[k].Eval(c, l[0], l[1]); got != want {
				t.Fatalf("bound Eval(%d, %d) of %s = %d, Eval = %d", l[0], l[1], a, got, want)
			}
		}
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

// TestAttrFingerprint checks that attributes built apart from the same
// tokens and index share a fingerprint and are SameAttr, and that changing
// the kind, the index, a token or the side of a regex makes them differ.
func TestAttrFingerprint(t *testing.T) {
	pair := func(l, r Regex) RegexPair { return RegexPair{Left: l, Right: r} }
	attrs := []Attr{
		AbsPos{K: 0},
		AbsPos{K: -1},
		RegPos{RR: pair(Regex{Number}, nil), K: 1},
		RegPos{RR: pair(Regex{Number}, nil), K: -1},
		RegPos{RR: pair(nil, Regex{Number}), K: 1},
		RegPos{RR: pair(Regex{Word}, nil), K: 1},
		RegPos{RR: pair(Regex{Number, Space}, Regex{Literal("ab")}), K: 2},
		RegPos{RR: pair(Regex{Number}, Regex{Space, Literal("ab")}), K: 2},
	}
	for i, a := range attrs {
		// Rebuild a from fresh slices, as a second learn call would.
		b := a
		if v, ok := a.(RegPos); ok {
			v.RR = pair(slices.Clone(v.RR.Left), slices.Clone(v.RR.Right))
			b = v
		}
		ha, oka := AttrFingerprint(a)
		hb, okb := AttrFingerprint(b)
		if !oka || !okb || ha != hb || !SameAttr(a, b) {
			t.Errorf("%s: rebuilt copy has fingerprint %x (ok %v) against %x (ok %v), SameAttr %v", a, hb, okb, ha, oka, SameAttr(a, b))
		}
		for _, c := range attrs[i+1:] {
			hc, _ := AttrFingerprint(c)
			if hc == ha || SameAttr(a, c) || SameAttr(c, a) {
				t.Errorf("%s and %s: fingerprints %x and %x, SameAttr %v", a, c, ha, hc, SameAttr(a, c))
			}
		}
	}
}

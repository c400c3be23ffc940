package tokens

import (
	"math/rand"
	"sync"
	"testing"
)

const cacheSample = "INFO 2014-01-02 core started\nWARN 17 retries, x=3.14;\nalpha beta 42 gamma\n"

// randomText draws a string over an alphabet mixing classes, punctuation,
// and newlines so that every standard token can occur.
func randomText(rng *rand.Rand, n int) string {
	const alphabet = "abXY019 ,;:.\n\t-\""
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}

// randomPool draws a subset of the standard tokens plus a few literal
// tokens taken from the text itself.
func randomPool(rng *rand.Rand, text string) []Token {
	var pool []Token
	for _, t := range Standard {
		if rng.Intn(2) == 0 {
			pool = append(pool, t)
		}
	}
	for i := 0; i < 2 && len(text) > 3; i++ {
		lo := rng.Intn(len(text) - 2)
		hi := lo + 1 + rng.Intn(2)
		lit := text[lo:hi]
		if lit != "" {
			pool = append(pool, Literal(lit))
		}
	}
	if len(pool) == 0 {
		pool = append(pool, Number)
	}
	return pool
}

// randomPair draws a regex pair whose tokens come from the pool; at least
// one side is non-empty.
func randomPair(rng *rand.Rand, pool []Token) RegexPair {
	side := func() Regex {
		var r Regex
		for i := rng.Intn(3); i > 0; i-- {
			r = append(r, pool[rng.Intn(len(pool))])
		}
		return r
	}
	for {
		rr := RegexPair{Left: side(), Right: side()}
		if len(rr.Left) > 0 || len(rr.Right) > 0 {
			return rr
		}
	}
}

func equalPositions(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCachePositionsMatchesRegexPair checks the document-scoped cache
// against the direct scan over random subranges, twice per key to cover
// both the miss and the hit path.
func TestCachePositionsMatchesRegexPair(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		text := randomText(rng, 30+rng.Intn(150))
		c := NewCache(text)
		pool := randomPool(rng, text)
		for i := 0; i < 12; i++ {
			lo := rng.Intn(len(text))
			hi := lo + rng.Intn(len(text)-lo)
			rr := randomPair(rng, pool)
			want := rr.Positions(text[lo:hi])
			if got := c.Positions(lo, hi, rr); !equalPositions(got, want) {
				t.Fatalf("miss: text[%d:%d] pair %s: cache %v, direct %v", lo, hi, rr, got, want)
			}
			if got := c.Positions(lo, hi, rr); !equalPositions(got, want) {
				t.Fatalf("hit: text[%d:%d] pair %s: cache %v, direct %v", lo, hi, rr, got, want)
			}
		}
	}
}

// TestCacheEvalAttrMatchesEval checks EvalAttr equivalence for both
// attribute forms, including the error case.
func TestCacheEvalAttrMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	text := cacheSample
	c := NewCache(text)
	attrs := []Attr{
		AbsPos{K: 1},
		AbsPos{K: -1},
		RegPos{RR: RegexPair{Left: Regex{Number}}, K: 1},
		RegPos{RR: RegexPair{Right: Regex{Word}}, K: -1},
		RegPos{RR: RegexPair{Left: Regex{Word}, Right: Regex{Space}}, K: 2},
		RegPos{RR: RegexPair{Left: Regex{Literal("zzz-never")}}, K: 1}, // always errs
	}
	for trial := 0; trial < 200; trial++ {
		lo := rng.Intn(len(text))
		hi := lo + rng.Intn(len(text)-lo)
		for _, a := range attrs {
			want, wantErr := a.Eval(text[lo:hi])
			got, gotErr := c.EvalAttr(lo, hi, a)
			if (wantErr == nil) != (gotErr == nil) || (wantErr == nil && got != want) {
				t.Fatalf("EvalAttr(%d,%d,%s) = (%d,%v), Eval = (%d,%v)", lo, hi, a, got, gotErr, want, wantErr)
			}
		}
	}
}

// TestPositionsMemoizesWholeDocumentOnly pins what Positions stores: with
// the pair's boundary entries resolved, a call on any sub-range (cut at
// one end, at the other, at both, or empty) answers what the direct scan
// does while leaving the entry count, the resident bytes and the miss
// counter as they were, and a repeated whole-document call is one hit that
// returns the stored sequence.
func TestPositionsMemoizesWholeDocumentOnly(t *testing.T) {
	text := cacheSample
	c := NewCache(text)
	rr := RegexPair{Left: Regex{Word}, Right: Regex{Space}}
	whole := c.Positions(0, len(text), rr)
	if len(whole) == 0 {
		t.Fatal("the pair has no position in the sample")
	}
	before := c.Stats()
	ranges := [][2]int{{0, len(text) - 1}, {1, len(text)}, {5, 40}, {12, 12}}
	for _, rg := range ranges {
		lo, hi := rg[0], rg[1]
		if got, want := c.Positions(lo, hi, rr), rr.Positions(text[lo:hi]); !equalPositions(got, want) {
			t.Fatalf("Positions(%d, %d) = %v, direct %v", lo, hi, got, want)
		}
		st := c.Stats()
		if st.Entries != before.Entries || st.ApproxBytes != before.ApproxBytes || st.Misses != before.Misses {
			t.Fatalf("Positions(%d, %d) changed the cache: %+v, was %+v", lo, hi, st, before)
		}
	}
	before = c.Stats()
	again := c.Positions(0, len(text), rr)
	st := c.Stats()
	if st.Hits != before.Hits+1 || st.Misses != before.Misses {
		t.Fatalf("repeated whole-document call: %+v, was %+v; want one hit", st, before)
	}
	if &again[0] != &whole[0] || len(again) != len(whole) {
		t.Fatalf("repeated whole-document call returned %v, not the stored %v", again, whole)
	}
}

// TestCacheConcurrentPositions shares one cache among goroutines that ask
// for the same whole-document and sub-range sequences at once, as the
// union fan-out's learners do; every answer must equal the direct scan
// (run it under -race), and misses that race on one pair must store its
// sequence once: the cache ends as large as one filled serially.
func TestCacheConcurrentPositions(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	text := randomText(rng, 300)
	pool := randomPool(rng, text)
	type query struct {
		lo, hi int
		rr     RegexPair
	}
	var qs []query
	for i := 0; i < 40; i++ {
		lo, hi := 0, len(text)
		if i%2 == 1 {
			lo = rng.Intn(len(text))
			hi = lo + rng.Intn(len(text)-lo)
		}
		qs = append(qs, query{lo, hi, randomPair(rng, pool)})
	}
	c := NewCache(text)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range qs {
				q := qs[(i+g*7)%len(qs)]
				if got, want := c.Positions(q.lo, q.hi, q.rr), q.rr.Positions(text[q.lo:q.hi]); !equalPositions(got, want) {
					t.Errorf("Positions(%d, %d, %s) = %v, direct %v", q.lo, q.hi, q.rr, got, want)
				}
			}
		}(g)
	}
	wg.Wait()
	serial := NewCache(text)
	for _, q := range qs {
		serial.Positions(q.lo, q.hi, q.rr)
	}
	if got, want := c.Stats().ApproxBytes, serial.Stats().ApproxBytes; got != want {
		t.Errorf("concurrent cache holds %d bytes, a serial one %d", got, want)
	}
}

// clippedBoundaries derives the boundaries of t over text[lo:hi] the way
// every range query does: the window of the range in t's whole-document
// entry, each element clipped and rebased to lo.
func clippedBoundaries(c *Cache, lo, hi int, t Token) (pre, suf []int) {
	a := anchor{t: t}
	i, j := a.window(c, lo, hi)
	for ; i < j; i++ {
		pre = append(pre, clip(a.e.pre[i], lo, hi))
		suf = append(suf, clip(a.e.suf[i], lo, hi))
	}
	return pre, suf
}

// TestBoundariesMatchesScan is the property test behind sub-range
// derivation: the clipped window of a whole-document entry
// (clippedBoundaries) must equal scanBoundaries(text[lo:hi], t) both when
// the entry was cached up front (warm) and when the first query for t is
// a sub-range (cold), for every standard token and for self-overlapping
// literals, over random ranges that include empty ranges and ranges
// cutting a run at lo or at hi. Either way the cache must end up holding
// exactly one boundary entry per token.
func TestBoundariesMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	toks := append(append([]Token(nil), Standard...),
		Literal("aa"), Literal("a"), Literal("ab"), Literal("0 ,"), Literal("\n"))
	for trial := 0; trial < 120; trial++ {
		text := randomText(rng, 1+rng.Intn(160))
		if trial%4 == 0 {
			text = "aaaa" + text + "aaaa"
		}
		warm, cold := NewCache(text), NewCache(text)
		for _, tok := range toks {
			warm.entry(tok)
		}
		for _, tok := range toks {
			whole := scanBoundaries(text, tok)
			var ranges [][2]int
			for i := 0; i < 12; i++ {
				lo := rng.Intn(len(text) + 1)
				ranges = append(ranges, [2]int{lo, lo + rng.Intn(len(text)-lo+1)}, [2]int{lo, lo})
			}
			// Ranges cutting a run (or a literal occurrence) at lo, at hi,
			// or both, and empty ranges strictly inside one.
			for r := range whole.pre {
				s, e := whole.pre[r], whole.suf[r]
				if e-s < 2 {
					continue
				}
				mid := s + 1 + rng.Intn(e-s-1)
				ranges = append(ranges,
					[2]int{mid, len(text)}, [2]int{0, mid}, [2]int{mid, mid},
					[2]int{mid, e}, [2]int{s, mid}, [2]int{s + 1, e - 1})
			}
			for _, rg := range ranges {
				lo, hi := rg[0], rg[1]
				want := scanBoundaries(text[lo:hi], tok)
				for name, c := range map[string]*Cache{"warm": warm, "cold": cold} {
					pre, suf := clippedBoundaries(c, lo, hi, tok)
					if !equalPositions(pre, want.pre) || !equalPositions(suf, want.suf) {
						t.Fatalf("%s: %s over text[%d:%d] of %q: got (%v, %v), scan (%v, %v)",
							name, tok, lo, hi, text, pre, suf, want.pre, want.suf)
					}
				}
			}
		}
		// Every answer was derived by clipping: no sub-range entry was
		// scanned and stored next to the whole-document ones.
		for name, c := range map[string]*Cache{"warm": warm, "cold": cold} {
			if n := len(c.bounds); n != len(toks) {
				t.Fatalf("%s cache holds %d boundary entries, want only the %d whole-document ones", name, n, len(toks))
			}
		}
	}
}

package tokens

import (
	"math/rand"
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

// TestCacheEvictionKeepsPinnedEntries floods the cache with sub-range
// entries past every bound and requires the whole-document entries to
// survive eviction.
func TestCacheEvictionKeepsPinnedEntries(t *testing.T) {
	text := randomText(rand.New(rand.NewSource(3)), 400)
	c := NewCache(text)
	rr := RegexPair{Left: Regex{Number}}

	wholeSeq := c.Positions(0, len(text), rr)

	// Flood: distinct (lo,hi) keys well past maxSeqEntries.
	n := 0
	for lo := 0; lo < len(text) && n < maxSeqEntries+100; lo++ {
		for hi := lo; hi <= len(text) && n < maxSeqEntries+100; hi += 7 {
			c.Positions(lo, hi, rr)
			n++
		}
	}

	c.mu.RLock()
	_, seqOK := c.seqs[seqKey{lo: 0, hi: len(text), h: pairFingerprint(rr)}]
	_, boundOK := c.bounds[Number.Name]
	c.mu.RUnlock()
	if !seqOK {
		t.Fatal("whole-document position sequence was evicted")
	}
	if !boundOK {
		t.Fatal("whole-document token boundaries were evicted")
	}
	if got := c.Positions(0, len(text), rr); !equalPositions(got, wholeSeq) {
		t.Fatalf("pinned sequence changed: %v vs %v", got, wholeSeq)
	}
}

// TestCacheEvictionCounter asserts Stats.Evictions counts dropped entries
// when a byte cap forces an eviction storm, and that evicted answers are
// recomputed identically — the cache is pure memoization, so an eviction
// storm (e.g. injected by the chaos layer) must never change results.
func TestCacheEvictionCounter(t *testing.T) {
	text := randomText(rand.New(rand.NewSource(9)), 400)
	c := NewCache(text)
	rr := RegexPair{Left: Regex{Number}}
	before := map[int][]int{}
	for lo := 1; lo < 40; lo++ {
		before[lo] = c.Positions(lo, len(text), rr)
	}
	if c.Stats().Evictions != 0 {
		t.Fatalf("evictions before cap = %d", c.Stats().Evictions)
	}
	c.SetMaxBytes(1)
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("byte cap of 1 evicted nothing")
	}
	for lo := 1; lo < 40; lo++ {
		if got := c.Positions(lo, len(text), rr); !equalPositions(got, before[lo]) {
			t.Fatalf("positions at lo=%d changed after eviction storm: %v vs %v", lo, got, before[lo])
		}
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

package tokens

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// refSeqsEndingAt is the reference enumeration of SeqsEndingAt: each
// frontier regex's end is looked up in a map keyed by its concatenated
// token names.
func refSeqsEndingAt(s string, k int, toks []Token) []Regex {
	out := []Regex{{}}
	frontier := []Regex{{}}
	ends := map[string]int{"": k}
	key := func(r Regex) string {
		str := ""
		for _, t := range r {
			str += t.Name + "|"
		}
		return str
	}
	for depth := 0; depth < MaxRegexTokens; depth++ {
		var next []Regex
		for _, r := range frontier {
			end := ends[key(r)]
			for _, t := range toks {
				n := t.MatchSuffix(s, end)
				if n <= 0 {
					continue
				}
				nr := append(Regex{t}, r...)
				if len(out) >= maxSeqsPerSide {
					return out
				}
				out = append(out, nr)
				next = append(next, nr)
				ends[key(nr)] = end - n
			}
		}
		frontier = next
	}
	return out
}

// hashInts is the dedupe signature of a whole position sequence.
func hashInts(xs []int) uint64 {
	h := uint64(fnvOffset)
	for _, x := range xs {
		h = hashInt(h, x)
	}
	return h
}

func indexOfInt(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}

// containsAllInts reports whether xs (sorted ascending) contains every
// element of sub, in order.
func containsAllInts(xs, sub []int) bool {
	i := 0
	for _, x := range xs {
		if i == len(sub) {
			return true
		}
		if x == sub[i] {
			i++
		}
	}
	return i == len(sub)
}

// refLearnAttrs is LearnAttrs over the reference semantics: every pair's
// sequence is RegexPair.Positions of the first string, and every
// candidate is checked with Attr.Eval on every example string.
func refLearnAttrs(exs []PosExample, toks []Token) []Attr {
	if len(exs) == 0 {
		return nil
	}
	first := exs[0]
	cands := []Attr{AbsPos{K: first.K}, AbsPos{K: first.K - len(first.S) - 1}}
	seen := map[uint64]bool{}
gen:
	for _, r1 := range refSeqsEndingAt(first.S, first.K, toks) {
		for _, r2 := range SeqsStartingAt(first.S, first.K, toks) {
			if len(r1) == 0 && len(r2) == 0 {
				continue
			}
			rr := RegexPair{Left: r1, Right: r2}
			ps := rr.Positions(first.S)
			idx := indexOfInt(ps, first.K)
			if idx < 0 || seen[hashInts(ps)] {
				continue
			}
			seen[hashInts(ps)] = true
			cands = append(cands, RegPos{RR: rr, K: idx + 1}, RegPos{RR: rr, K: idx - len(ps)})
			if len(cands) >= maxAttrCandidates {
				break gen
			}
		}
	}
	var out []Attr
	for _, a := range cands {
		ok := true
		for _, ex := range exs {
			if k, err := a.Eval(ex.S); err != nil || k != ex.K {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, a)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cost() < out[j].Cost() })
	return out
}

// refLearnRegexPairs is LearnRegexPairs over the reference semantics: a
// pair holds when RegexPair.Positions of every example string contains
// its positives in order, and pairs are deduped on the sequence over the
// first example string.
func refLearnRegexPairs(exs []SeqPosExample, toks []Token) []RegexPair {
	var first *SeqPosExample
	for i := range exs {
		if len(exs[i].Ks) > 0 {
			first = &exs[i]
			break
		}
	}
	if first == nil {
		return nil
	}
	k0 := first.Ks[0]
	if k0 < 0 || k0 > len(first.S) {
		return nil // no position sequence contains it
	}
	var out []RegexPair
	seen := map[uint64]bool{}
pairs:
	for _, r1 := range refSeqsEndingAt(first.S, k0, toks) {
		for _, r2 := range SeqsStartingAt(first.S, k0, toks) {
			if len(r1) == 0 && len(r2) == 0 {
				continue
			}
			rr := RegexPair{Left: r1, Right: r2}
			ok := true
			var firstSig uint64
			for i, ex := range exs {
				ps := rr.Positions(ex.S)
				if i == 0 {
					firstSig = hashInts(ps)
				}
				if !containsAllInts(ps, ex.Ks) {
					ok = false
					break
				}
			}
			if !ok || seen[firstSig] {
				continue
			}
			seen[firstSig] = true
			out = append(out, rr)
			if len(out) >= maxSeqsPerSide {
				break pairs
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cost() < out[j].Cost() })
	return out
}

func sameAttrs(a, b []Attr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			return false
		}
	}
	return true
}

func samePairs(a, b []RegexPair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			return false
		}
	}
	return true
}

// fuzzPool draws a token pool from fuzzToks, repeats allowed, plus a
// literal cut from the text.
func fuzzPool(r *byteReader, text string) []Token {
	var pool []Token
	for i := 1 + r.next()%12; i > 0; i-- {
		pool = append(pool, fuzzToks[r.next()%len(fuzzToks)])
	}
	if len(text) > 2 && r.next()%2 == 0 {
		lo := r.next() % (len(text) - 1)
		pool = append(pool, Literal(text[lo:lo+1+r.next()%2]))
	}
	return pool
}

// fuzzCache names a range of text through the shared cache c, through a
// cache of its own, or (C nil) not at all.
func fuzzCache(r *byteReader, c *Cache) *Cache {
	switch r.next() % 3 {
	case 0:
		return c
	case 1:
		return NewCache(c.Text())
	default:
		return nil
	}
}

// fuzzPositives draws ascending positives in [0, n], then sometimes empties
// them, repeats one or adds one out of range.
func fuzzPositives(r *byteReader, n int) []int {
	var ks []int
	for i := 1 + r.next()%3; i > 0; i-- {
		ks = append(ks, r.next()%(n+1))
	}
	sort.Ints(ks)
	switch r.next() % 8 {
	case 0:
		return nil
	case 1:
		return append(ks, ks[len(ks)-1])
	case 2:
		return append(ks, n+1+r.next()%3)
	case 3:
		return append([]int{-1 - r.next()%3}, ks...)
	}
	return ks
}

// FuzzLearnPositions checks LearnAttrs and LearnRegexPairs against the
// reference learners above on fuzzer-built texts, token pools and
// sub-ranges. Examples name their range through a shared cache, a cache of
// their own, or no cache; sequence examples carry empty, repeated and
// out-of-range positives. Its 64 random seeds run with the plain test
// suite too.
func FuzzLearnPositions(f *testing.F) {
	for seed := int64(1); seed <= 64; seed++ {
		b := make([]byte, 160)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		r := &byteReader{b}
		text := fuzzText(r)
		pool := fuzzPool(r, text)
		shared := NewCache(text)
		nex := 1 + r.next()%3

		var pexs []PosExample
		var sexs []SeqPosExample
		for i := 0; i < nex; i++ {
			lo, hi := fuzzRange(r, text)
			s := text[lo:hi]
			c := fuzzCache(r, shared)
			pexs = append(pexs, PosExample{S: s, K: r.next() % (len(s) + 1), C: c, Lo: lo})
			sexs = append(sexs, SeqPosExample{S: s, Ks: fuzzPositives(r, len(s)), C: c, Lo: lo})
		}
		if got, want := LearnAttrs(pexs, pool), refLearnAttrs(pexs, pool); !sameAttrs(got, want) {
			t.Fatalf("LearnAttrs over %q, pool %v, examples %+v:\n got %v\nwant %v", text, pool, pexs, got, want)
		}
		if got, want := LearnRegexPairs(sexs, pool), refLearnRegexPairs(sexs, pool); !samePairs(got, want) {
			t.Fatalf("LearnRegexPairs over %q, pool %v, examples %+v:\n got %v\nwant %v", text, pool, sexs, got, want)
		}
	})
}

// TestLearnOutOfRangePositions pins that an example position outside its
// string yields nothing instead of a panic in the sequence enumeration.
func TestLearnOutOfRangePositions(t *testing.T) {
	for _, k := range []int{-1, 4} {
		if got := LearnAttrs([]PosExample{{S: "a:1", K: k}}, Standard); got != nil {
			t.Errorf("LearnAttrs at %d = %v, want nil", k, got)
		}
		if got := LearnRegexPairs([]SeqPosExample{{S: "a:1", Ks: []int{k}}}, Standard); got != nil {
			t.Errorf("LearnRegexPairs at %d = %v, want nil", k, got)
		}
	}
}

// TestLearnRegexPairsDedupesOnFirstExample pins whose sequence dedupes
// pairs: the first example's, even when it has no positives and the
// candidates come from a later example. Over an empty first string every
// pair's sequence is empty, so only the first pair that holds is kept.
func TestLearnRegexPairsDedupesOnFirstExample(t *testing.T) {
	exs := []SeqPosExample{{S: ""}, {S: "a:1,b:22", Ks: []int{2, 6}}}
	got, want := LearnRegexPairs(exs, Standard), refLearnRegexPairs(exs, Standard)
	if len(got) != 1 || !samePairs(got, want) {
		t.Fatalf("pairs %v, reference %v, want the one reference pair", got, want)
	}
}

// TestSeqsEndingAtMatchesReference checks the frontier-carried ends of
// SeqsEndingAt against refSeqsEndingAt, on random texts, positions and
// pools with repeated tokens.
func TestSeqsEndingAtMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		text := randomText(rng, 1+rng.Intn(60))
		pool := randomPool(rng, text)
		pool = append(pool, pool[rng.Intn(len(pool))])
		k := rng.Intn(len(text) + 1)
		got, want := SeqsEndingAt(text, k, pool), refSeqsEndingAt(text, k, pool)
		if len(got) != len(want) {
			t.Fatalf("%q at %d: %d sequences, reference %d", text, k, len(got), len(want))
		}
		for i := range got {
			if !got[i].Eq(want[i]) {
				t.Fatalf("%q at %d: sequence %d is %s, reference %s", text, k, i, got[i], want[i])
			}
		}
	}
}

// TestPairSeqMatchesIntersection checks pairSeq's length, index and
// signature against the intersection built out, on random ascending lists
// holding values of every byte width, negatives included, and with either
// side ε.
func TestPairSeqMatchesIntersection(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	list := func() []int {
		set := map[int]bool{}
		for i := rng.Intn(40); i > 0; i-- {
			set[rng.Intn(64)<<(8*rng.Intn(8))-rng.Intn(2)*(1<<40)] = true
		}
		xs := make([]int, 0, len(set))
		for x := range set {
			xs = append(xs, x)
		}
		sort.Ints(xs)
		return xs
	}
	for trial := 0; trial < 3000; trial++ {
		xs, ys := list(), list()
		switch trial % 5 {
		case 0:
			xs = nil
		case 1:
			ys = nil
		case 2: // ys ⊇ xs
			for _, x := range xs {
				if indexOfInt(ys, x) < 0 {
					ys = append(ys, x)
				}
			}
			sort.Ints(ys)
		}
		var want []int
		for _, x := range xs {
			if ys == nil || indexOfInt(ys, x) >= 0 {
				want = append(want, x)
			}
		}
		if xs == nil {
			want = ys
		}
		k := rng.Intn(64)
		if len(want) > 0 && rng.Intn(2) == 0 {
			k = want[rng.Intn(len(want))]
		}
		n, idx, sig := pairSeq(xs, ys, k)
		if n != len(want) || idx != indexOfInt(want, k) || sig != hashInts(want) {
			t.Fatalf("pairSeq(%v, %v, %d) = (%d, %d, %x), want (%d, %d, %x)",
				xs, ys, k, n, idx, sig, len(want), indexOfInt(want, k), hashInts(want))
		}
	}
}

// TestMatchListsMatchScan checks each side's match list against a
// per-offset MatchSuffix / MatchPrefix scan of text[lo:hi], on random
// sub-ranges (empty ones included) with a cold cache and with a warm one
// holding every pool token's entry.
func TestMatchListsMatchScan(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 150; trial++ {
		text := randomText(rng, 1+rng.Intn(150))
		pool := randomPool(rng, text)
		warm := NewCache(text)
		for _, tok := range pool {
			warm.entry(tok)
		}
		var rs []Regex
		for i := 0; i < 8; i++ {
			rr := randomPair(rng, pool)
			rs = append(rs, rr.Left, rr.Right)
		}
		for q := 0; q < 6; q++ {
			lo := rng.Intn(len(text) + 1)
			hi := lo + rng.Intn(len(text)-lo+1)
			s := text[lo:hi]
			for name, c := range map[string]*Cache{"cold": NewCache(text), "warm": warm} {
				x := exampleRange{c, lo, hi}
				for _, re := range rs {
					l, r := x.matchList(re, true), x.matchList(re, false)
					if len(re) == 0 {
						if l != nil || r != nil {
							t.Fatalf("%s: ε got lists %v, %v", name, l, r)
						}
						continue
					}
					var suf, pre []int
					for k := 0; k <= len(s); k++ {
						if re.MatchSuffix(s, k) >= 0 {
							suf = append(suf, k)
						}
						if re.MatchPrefix(s, k) >= 0 {
							pre = append(pre, k)
						}
					}
					if !equalPositions(l, suf) || !equalPositions(r, pre) {
						t.Fatalf("%s: %s over text[%d:%d] of %q: lists (%v, %v), scan (%v, %v)",
							name, re, lo, hi, text, l, r, suf, pre)
					}
					if l == nil || r == nil {
						t.Fatalf("%s: %s got a nil list, which reads as ε", name, re)
					}
				}
			}
		}
	}
}

// TestLearnOverRangeRecordsNoMiss pins the sharing: once every pool
// token's whole-document entry is cached, learning over sub-ranges of the
// document scans nothing, so the cache records no new miss, and it learns
// what the learners learn from the bare strings.
func TestLearnOverRangeRecordsNoMiss(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 40; i++ {
		sb.WriteString("2014-01-02 INFO node")
		sb.WriteString(strings.Repeat("7", 1+i%3))
		sb.WriteString(": sent 42 bytes, ok\n")
	}
	text := sb.String()
	pool := append(append([]Token(nil), Standard...), Literal(": "), Literal(", "))
	c := NewCache(text)
	for _, tok := range pool {
		c.entry(tok)
	}
	misses := c.Stats().Misses

	// Suffix ranges from two record starts, each ending at its record's
	// byte count; the starts of two records within three.
	var starts []int
	for lo := 0; lo < len(text); lo += strings.IndexByte(text[lo:], '\n') + 1 {
		starts = append(starts, lo)
	}
	at := func(lo int, sub string) int { return strings.Index(text[lo:], sub) }
	pexs := []PosExample{
		{S: text[starts[1]:], K: at(starts[1], " bytes"), C: c, Lo: starts[1]},
		{S: text[starts[5]:], K: at(starts[5], " bytes"), C: c, Lo: starts[5]},
	}
	lo, hi := starts[1], starts[4]
	sexs := []SeqPosExample{{S: text[lo:hi], Ks: []int{starts[2] - lo, starts[3] - lo}, C: c, Lo: lo}}
	attrs, pairs := LearnAttrs(pexs, pool), LearnRegexPairs(sexs, pool)
	if got := c.Stats().Misses; got != misses {
		t.Fatalf("learning over sub-ranges missed the warm cache: misses %d -> %d", misses, got)
	}
	if len(attrs) == 0 || len(pairs) == 0 {
		t.Fatalf("learned %d attributes and %d pairs, want some of each", len(attrs), len(pairs))
	}
	for i := range pexs {
		pexs[i].C = nil
	}
	sexs[0].C = nil
	if bare := LearnAttrs(pexs, pool); !sameAttrs(attrs, bare) {
		t.Fatalf("attributes over the cache %v, over the bare strings %v", attrs, bare)
	}
	if bare := LearnRegexPairs(sexs, pool); !samePairs(pairs, bare) {
		t.Fatalf("pairs over the cache %v, over the bare strings %v", pairs, bare)
	}
}

package tokens

import (
	"fmt"
	"sort"
	"strings"
)

// Attr is a position attribute p (§5.1): a program computing a position in
// a string. It is either an absolute position or the k-th element of a
// regex-pair position sequence.
type Attr interface {
	// Eval returns the position identified by the attribute in s, or an
	// error when the attribute has no match.
	Eval(s string) (int, error)
	String() string
	// Cost is the attribute's heuristic ranking score (lower is better);
	// it feeds the program-cost ranking of the core framework.
	Cost() int
}

// AbsPos is the absolute position attribute AbsPos(k): position k when
// k ≥ 0, or len(s)+k+1 when k < 0 (so AbsPos(-1) is the end of s).
type AbsPos struct {
	K int
}

// Eval resolves the absolute position in s.
func (a AbsPos) Eval(s string) (int, error) {
	k := a.K
	if k < 0 {
		k = len(s) + k + 1
	}
	if k < 0 || k > len(s) {
		return 0, fmt.Errorf("tokens: AbsPos(%d) out of range for length %d", a.K, len(s))
	}
	return k, nil
}

func (a AbsPos) String() string { return fmt.Sprintf("AbsPos(%d)", a.K) }

// Cost ranks the natural boundaries AbsPos(0) and AbsPos(-1) best and
// other absolute positions worst (they almost never generalize).
func (a AbsPos) Cost() int {
	if a.K == 0 || a.K == -1 {
		return 0
	}
	k := a.K
	if k < 0 {
		k = -k
	}
	return 100 + k
}

// RegPos is the regex position attribute RegPos(rr, k): the k-th element
// (1-based; negative counts from the right) of the position sequence
// identified by the regex pair rr.
type RegPos struct {
	RR RegexPair
	K  int
}

// Eval resolves the k-th regex-pair position in s by testing every
// position from the end the sign of k names, stopping at the k-th match.
// It is the reference semantics of the attribute: Cache.EvalAttr returns
// the same answer over a range of a document by walking only the cached
// boundaries of the pair's anchor token.
func (a RegPos) Eval(s string) (int, error) {
	if len(a.RR.Left) == 0 && len(a.RR.Right) == 0 {
		return 0, errNoRegPosMatch(a)
	}
	count := 0
	switch {
	case a.K > 0:
		for k := 0; k <= len(s); k++ {
			if a.RR.matchesAt(s, k) {
				count++
				if count == a.K {
					return k, nil
				}
			}
		}
	case a.K < 0:
		for k := len(s); k >= 0; k-- {
			if a.RR.matchesAt(s, k) {
				count++
				if count == -a.K {
					return k, nil
				}
			}
		}
	}
	return 0, errNoRegPosMatch(a)
}

func errNoRegPosMatch(a RegPos) error {
	return fmt.Errorf("tokens: RegPos%s[%d] has no match", a.RR, a.K)
}

func (a RegPos) String() string { return fmt.Sprintf("RegPos(%s, %d)", a.RR, a.K) }

// Cost prefers short regex contexts and positions near the ends of the
// match sequence.
func (a RegPos) Cost() int {
	k := a.K
	if k < 0 {
		k = -k
	}
	return a.RR.Cost() + 2*(k-1)
}

// AttrFingerprint hashes a position attribute by its index and its
// tokens' names, which identify tokens (the cache keys a regex pair the
// same way); SameAttr confirms a match. ok is false for an Attr that is
// neither an AbsPos nor a RegPos.
func AttrFingerprint(a Attr) (h uint64, ok bool) {
	switch v := a.(type) {
	case AbsPos:
		return (fnvOffset ^ uint64(v.K)) * fnvPrime, true
	case RegPos:
		return (pairFingerprint(v.RR) ^ uint64(v.K) ^ 0x3f) * fnvPrime, true
	}
	return 0, false
}

// SameAttr reports whether two attributes are the same by the identity
// AttrFingerprint hashes.
func SameAttr(a, b Attr) bool {
	switch v := a.(type) {
	case AbsPos:
		w, ok := b.(AbsPos)
		return ok && v == w
	case RegPos:
		w, ok := b.(RegPos)
		return ok && v.K == w.K && pairEqual(v.RR, w.RR)
	}
	return false
}

// maxSeqsPerSide bounds the token-sequence enumeration per side of a
// position during learning.
const maxSeqsPerSide = 48

// SeqsEndingAt enumerates token sequences (length ≤ MaxRegexTokens,
// including ε) matching a suffix ending at position k of s, shortest
// first.
func SeqsEndingAt(s string, k int, toks []Token) []Regex {
	out := []Regex{{}}
	type item struct {
		r   Regex
		end int // where the next token to the left must end
	}
	frontier := []item{{Regex{}, k}}
	for depth := 0; depth < MaxRegexTokens; depth++ {
		var next []item
		for _, it := range frontier {
			for _, t := range toks {
				n := t.MatchSuffix(s, it.end)
				if n <= 0 {
					continue
				}
				nr := append(Regex{t}, it.r...)
				if len(out) >= maxSeqsPerSide {
					return out
				}
				out = append(out, nr)
				next = append(next, item{nr, it.end - n})
			}
		}
		frontier = next
	}
	return out
}

// SeqsStartingAt enumerates token sequences (length ≤ MaxRegexTokens,
// including ε) matching a prefix starting at position k of s, shortest
// first.
func SeqsStartingAt(s string, k int, toks []Token) []Regex {
	out := []Regex{{}}
	type item struct {
		r     Regex
		start int
	}
	frontier := []item{{Regex{}, k}}
	for depth := 0; depth < MaxRegexTokens; depth++ {
		var next []item
		for _, it := range frontier {
			for _, t := range toks {
				n := t.MatchPrefix(s, it.start)
				if n <= 0 {
					continue
				}
				nr := append(append(Regex{}, it.r...), t)
				if len(out) >= maxSeqsPerSide {
					return out
				}
				out = append(out, nr)
				next = append(next, item{nr, it.start + n})
			}
		}
		frontier = next
	}
	return out
}

// PosExample is an example for position-attribute learning: the position K
// within the string S.
type PosExample struct {
	S string
	K int
	// C optionally names the document cache S was cut from, at offset Lo:
	// S is C.Text()[Lo:Lo+len(S)]. The learners then read C's
	// whole-document token boundaries, which are shared across calls,
	// instead of scanning S; when C is nil the learner caches S itself.
	C  *Cache
	Lo int
}

// exampleRange is the range [lo, hi) of a cache's text that holds an
// example's string.
type exampleRange struct {
	c      *Cache
	lo, hi int
}

func rangeOf(c *Cache, lo int, s string) exampleRange {
	if c == nil {
		return exampleRange{NewCache(s), 0, len(s)}
	}
	return exampleRange{c, lo, lo + len(s)}
}

// matchList returns the ascending positions of the range (relative to lo)
// where r matches as a suffix (a left regex) or as a prefix (a right
// regex). It returns nil for ε, which pairSeq reads as "matches
// everywhere", and a made, non-nil list for any other regex, even an empty
// one. It walks the window of the whole-document boundary entry of r's
// edge token: the ends of a left regex's last token, the starts of a right
// regex's first token. Every match lies on one of those boundaries, and a
// one-token regex matches on all of them.
func (x exampleRange) matchList(r Regex, left bool) []int {
	if len(r) == 0 {
		return nil
	}
	a := anchor{t: r[0]}
	if left {
		a.t = r[len(r)-1]
	}
	i, j := a.window(x.c, x.lo, x.hi)
	bs := a.e.pre
	if left {
		bs = a.e.suf
	}
	s := x.c.text[x.lo:x.hi]
	ps := make([]int, 0, j-i)
	for _, b := range bs[i:j] {
		k := clip(b, x.lo, x.hi)
		if len(r) == 1 || left && r.MatchSuffix(s, k) >= 0 || !left && r.MatchPrefix(s, k) >= 0 {
			ps = append(ps, k)
		}
	}
	return ps
}

// pairSeq returns the length n of the position sequence of a regex pair
// whose sides match at the ascending positions xs and ys, the index of k
// in it (-1 when k is absent) and its hashInt signature, in one two-pointer
// walk over the intersection that builds nothing. An ε side (nil) matches
// everywhere, so the sequence is the other list.
func pairSeq(xs, ys []int, k int) (n, idx int, sig uint64) {
	if xs == nil {
		xs = ys
	} else if ys == nil {
		ys = xs
	}
	idx, sig = -1, fnvOffset
	for i, j := 0, 0; i < len(xs) && j < len(ys); {
		switch x, y := xs[i], ys[j]; {
		case x < y:
			i++
		case x > y:
			j++
		default:
			if x == k {
				idx = n
			}
			sig = hashInt(sig, x)
			n++
			i++
			j++
		}
	}
	return n, idx, sig
}

// maxAttrCandidates bounds the number of candidate attributes generated
// from the first example before cross-example verification.
const maxAttrCandidates = 1500

// LearnAttrs learns the ranked set of position attributes consistent with
// all examples, using the given token set (standard plus dynamic tokens).
// It generates candidates from the first example and verifies them on the
// rest, as in prior work on FlashFill-style position learning.
func LearnAttrs(exs []PosExample, toks []Token) []Attr {
	return LearnAttrsStop(exs, toks, nil)
}

// LearnAttrsStop is LearnAttrs with a cooperative stop callback, polled
// between candidates: when stop returns true, the attributes verified so
// far are returned. Candidate generation and verification both scan the
// example strings, so this is where a synthesis deadline must be able to
// interrupt position learning on large documents.
//
// Candidates are the regex pairs around the first example's position,
// each with the index of that position in the pair's sequence over the
// first example, counted from either end. The match list of every side
// regex is built once, so a pair's sequence is one intersection
// (pairSeq), and pairs yielding a sequence already seen are dropped. Every
// candidate holds on the first example by construction and is checked on
// the others with Cache.EvalAttr.
func LearnAttrsStop(exs []PosExample, toks []Token, stop func() bool) []Attr {
	if len(exs) == 0 {
		return nil
	}
	first := exs[0]
	if first.K < 0 || first.K > len(first.S) {
		return nil // no attribute yields a position outside the string
	}
	cands := []Attr{AbsPos{K: first.K}, AbsPos{K: first.K - len(first.S) - 1}}

	lefts := SeqsEndingAt(first.S, first.K, toks)
	rights := SeqsStartingAt(first.S, first.K, toks)
	x0 := rangeOf(first.C, first.Lo, first.S)
	ls, rs := make([][]int, len(lefts)), make([][]int, len(rights))
	for a, r1 := range lefts {
		ls[a] = x0.matchList(r1, true)
	}
	for b, r2 := range rights {
		rs[b] = x0.matchList(r2, false)
	}
	seen := map[uint64]bool{}
gen:
	for a, r1 := range lefts {
		for b, r2 := range rights {
			if stop != nil && stop() {
				break gen
			}
			if len(r1) == 0 && len(r2) == 0 {
				continue
			}
			n, idx, sig := pairSeq(ls[a], rs[b], first.K)
			if idx < 0 || seen[sig] {
				continue
			}
			seen[sig] = true
			rr := RegexPair{Left: r1, Right: r2}
			cands = append(cands, RegPos{RR: rr, K: idx + 1}, RegPos{RR: rr, K: idx - n})
			if len(cands) >= maxAttrCandidates {
				break gen
			}
		}
	}

	rest := make([]exampleRange, len(exs)-1)
	for i, ex := range exs[1:] {
		rest[i] = rangeOf(ex.C, ex.Lo, ex.S)
	}
	var out []Attr
verify:
	for _, a := range cands {
		if stop != nil && stop() {
			break // keep the verified prefix
		}
		for i, x := range rest {
			if k, err := x.c.EvalAttr(x.lo, x.hi, a); err != nil || k != exs[i+1].K {
				continue verify
			}
		}
		out = append(out, a)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cost() < out[j].Cost() })
	return out
}

// SeqPosExample is an example for regex-pair (position sequence) learning:
// Ks are positive position instances, in order, within S. C and Lo name
// the cache range of S, as in PosExample.
type SeqPosExample struct {
	S  string
	Ks []int
	C  *Cache
	Lo int
}

// LearnRegexPairs learns the ranked set of regex pairs rr whose position
// sequence contains every positive position of every example. Candidates
// are generated around the first position of the first example and
// verified on everything else.
func LearnRegexPairs(exs []SeqPosExample, toks []Token) []RegexPair {
	return LearnRegexPairsStop(exs, toks, nil)
}

// LearnRegexPairsStop is LearnRegexPairs with a cooperative stop callback
// polled between candidate pairs; the pairs verified so far are returned
// when it trips.
//
// A pair holds when it matches at every positive (RegexPair.matchesAt).
// Pairs whose sequence over the first example is one already kept are
// dropped; that sequence is an intersection of side match lists built once
// per call (pairSeq).
func LearnRegexPairsStop(exs []SeqPosExample, toks []Token, stop func() bool) []RegexPair {
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
	// An ascending position sequence holds the positives in order only when
	// they ascend strictly within their string, so a repeated or
	// out-of-range positive rejects every pair.
	for _, ex := range exs {
		for i, k := range ex.Ks {
			if k < 0 || k > len(ex.S) || i > 0 && k <= ex.Ks[i-1] {
				return nil
			}
		}
	}
	k0 := first.Ks[0]
	lefts := SeqsEndingAt(first.S, k0, toks)
	rights := SeqsStartingAt(first.S, k0, toks)
	// The match lists over the first example are built on first use: only
	// pairs that hold need a signature.
	x0 := rangeOf(exs[0].C, exs[0].Lo, exs[0].S)
	ls, rs := make([][]int, len(lefts)), make([][]int, len(rights))
	var out []RegexPair
	seen := map[uint64]bool{}
pairs:
	for a, r1 := range lefts {
		for b, r2 := range rights {
			if stop != nil && stop() {
				break pairs // keep the verified prefix
			}
			if len(r1) == 0 && len(r2) == 0 {
				continue
			}
			rr := RegexPair{Left: r1, Right: r2}
			if !rr.matchesAll(exs) {
				continue
			}
			if ls[a] == nil {
				ls[a] = x0.matchList(r1, true)
			}
			if rs[b] == nil {
				rs[b] = x0.matchList(r2, false)
			}
			_, _, sig := pairSeq(ls[a], rs[b], -1)
			if seen[sig] {
				continue
			}
			seen[sig] = true
			out = append(out, rr)
			if len(out) >= maxSeqsPerSide {
				break pairs
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cost() < out[j].Cost() })
	return out
}

// matchesAll reports whether rr matches at every positive of every
// example.
func (rr RegexPair) matchesAll(exs []SeqPosExample) bool {
	for _, ex := range exs {
		for _, k := range ex.Ks {
			if !rr.matchesAt(ex.S, k) {
				return false
			}
		}
	}
	return true
}

// FNV-1a parameters of hashInt.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashInt extends an FNV-1a hash with the eight little-endian bytes of x;
// folded over a position sequence from fnvOffset, it dedupes candidate
// sequences cheaply.
func hashInt(h uint64, x int) uint64 {
	v := uint64(x)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// DiscoverDynamicTokens promotes frequently occurring literals around the
// example positions to dynamic tokens (§5.1). For every example position
// it considers the left and right context substrings of lengths 1..maxLen
// and keeps those occurring at least minOccur times in doc. To avoid
// overfitting, a literal must be at least two bytes long and contain a
// non-alphanumeric byte (dynamic tokens exist to capture delimiters such
// as `,""` or `DLZ - `, not stray content characters).
func DiscoverDynamicTokens(doc string, exs []PosExample, maxLen, minOccur, cap int) []Token {
	counts := map[string]bool{}
	var lits []string
	consider := func(lit string) {
		if len(lit) < 2 || counts[lit] {
			return
		}
		counts[lit] = true
		if !hasNonAlnum(lit) {
			return
		}
		if countOccurrences(doc, lit) >= minOccur {
			lits = append(lits, lit)
		}
	}
	for _, ex := range exs {
		for n := 1; n <= maxLen; n++ {
			if ex.K-n >= 0 {
				consider(ex.S[ex.K-n : ex.K])
			}
			if ex.K+n <= len(ex.S) {
				consider(ex.S[ex.K : ex.K+n])
			}
		}
	}
	// Longer literals are more distinctive; prefer them.
	sort.SliceStable(lits, func(i, j int) bool { return len(lits[i]) > len(lits[j]) })
	if len(lits) > cap {
		lits = lits[:cap]
	}
	out := make([]Token, len(lits))
	for i, l := range lits {
		out[i] = Literal(l)
	}
	return out
}

func hasNonAlnum(s string) bool {
	for i := 0; i < len(s); i++ {
		if !isAlnum(s[i]) {
			return true
		}
	}
	return false
}

func countOccurrences(s, sub string) int {
	n, i := 0, 0
	for {
		j := indexFrom(s, sub, i)
		if j < 0 {
			return n
		}
		n++
		i = j + len(sub)
	}
}

func indexFrom(s, sub string, from int) int {
	if from < 0 || from > len(s) {
		return -1
	}
	j := strings.Index(s[from:], sub)
	if j < 0 {
		return -1
	}
	return from + j
}

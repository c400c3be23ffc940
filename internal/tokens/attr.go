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

// maxSeqsPerSide bounds the token-sequence enumeration per side of a
// position during learning.
const maxSeqsPerSide = 48

// SeqsEndingAt enumerates token sequences (length ≤ MaxRegexTokens,
// including ε) matching a suffix ending at position k of s, shortest
// first.
func SeqsEndingAt(s string, k int, toks []Token) []Regex {
	out := []Regex{{}}
	frontier := []Regex{{}}
	ends := map[string]int{"": k} // regex key → leftmost end after matching
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
	// Ix optionally carries a prebuilt boundary index of S (see
	// Cache.IndexFor); when nil the learner builds one itself. Callers that
	// learn repeatedly over the same document share the index across calls.
	Ix *Index
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
func LearnAttrsStop(exs []PosExample, toks []Token, stop func() bool) []Attr {
	if len(exs) == 0 {
		return nil
	}
	first := exs[0]
	var cands []Attr
	cands = append(cands, AbsPos{K: first.K}, AbsPos{K: first.K - len(first.S) - 1})

	indexes := make([]*Index, len(exs))
	for i, ex := range exs {
		if ex.Ix != nil {
			indexes[i] = ex.Ix
		} else {
			indexes[i] = NewIndex(ex.S, toks)
		}
	}
	lefts := SeqsEndingAt(first.S, first.K, toks)
	rights := SeqsStartingAt(first.S, first.K, toks)
	seen := map[uint64]bool{}
gen:
	for _, r1 := range lefts {
		for _, r2 := range rights {
			if stop != nil && stop() {
				break gen
			}
			if len(r1) == 0 && len(r2) == 0 {
				continue
			}
			rr := RegexPair{Left: r1, Right: r2}
			ps := indexes[0].Positions(rr)
			idx := indexOfInt(ps, first.K)
			if idx < 0 {
				continue
			}
			// Dedupe regex pairs yielding the same position sequence.
			sig := hashInts(ps)
			if seen[sig] {
				continue
			}
			seen[sig] = true
			cands = append(cands, RegPos{RR: rr, K: idx + 1}, RegPos{RR: rr, K: idx - len(ps)})
			if len(cands) >= maxAttrCandidates {
				break
			}
		}
		if len(cands) >= maxAttrCandidates {
			break
		}
	}

	var out []Attr
	for _, a := range cands {
		if stop != nil && stop() {
			break // keep the verified prefix
		}
		ok := true
		for i, ex := range exs {
			k, err := indexes[i].EvalAttr(a)
			if err != nil || k != ex.K {
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

// SeqPosExample is an example for regex-pair (position sequence) learning:
// Ks are positive position instances, in order, within S.
type SeqPosExample struct {
	S  string
	Ks []int
	// Ix optionally carries a prebuilt boundary index of S, as in
	// PosExample.
	Ix *Index
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
	k0 := first.Ks[0]
	indexes := make([]*Index, len(exs))
	for i, ex := range exs {
		if ex.Ix != nil {
			indexes[i] = ex.Ix
		} else {
			indexes[i] = NewIndex(ex.S, toks)
		}
	}
	lefts := SeqsEndingAt(first.S, k0, toks)
	rights := SeqsStartingAt(first.S, k0, toks)
	var out []RegexPair
	seen := map[uint64]bool{}
pairs:
	for _, r1 := range lefts {
		for _, r2 := range rights {
			if stop != nil && stop() {
				break pairs // keep the verified prefix
			}
			if len(r1) == 0 && len(r2) == 0 {
				continue
			}
			rr := RegexPair{Left: r1, Right: r2}
			ok := true
			var firstSig uint64
			for i, ex := range exs {
				ps := indexes[i].Positions(rr)
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
				break
			}
		}
		if len(out) >= maxSeqsPerSide {
			break
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cost() < out[j].Cost() })
	return out
}

// hashInts is an FNV-1a hash over an int slice, used to dedupe candidate
// position sequences cheaply.
func hashInts(xs []int) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range xs {
		v := uint64(x)
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
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

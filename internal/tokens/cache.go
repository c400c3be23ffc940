package tokens

import (
	"strings"
	"sync"
	"sync/atomic"
)

// Cache is a document-scoped evaluation cache. It is owned by a document
// (one immutable text) and memoizes whole-document answers only: one
// boundary entry per token, the sorted starts and ends of the token's runs
// (class tokens) or occurrences (literals), and one position sequence per
// regex pair. Every query over another half-open range [lo, hi) of the
// text is answered from the boundary entries, by searching them for the
// window that belongs to the range and walking it in place, and stores
// nothing: an AttrEval walks to the k-th match, a CountEval counts
// matches, and Positions (PosSeq) collects the pair's positions. Over the
// whole document, where every ⊥-relative candidate evaluates, Positions
// shares one sequence per pair across candidate programs, validation runs
// and refinement iterations. The position learners (LearnAttrs,
// LearnRegexPairs) build their per-regex match lists from the same
// windows, for examples that name a range of the cache.
//
// All methods are safe for concurrent use; returned slices are shared and
// must be treated as read-only. The backing text never changes, so cached
// entries are valid forever and none is evicted: the cache holds one entry
// per token and per regex pair the document is queried with.
type Cache struct {
	text string

	hits   atomic.Int64
	misses atomic.Int64

	mu     sync.RWMutex
	bytes  int64                 // approximate resident bytes of all entries (guarded by mu)
	bounds map[string]boundEntry // whole-document boundaries by token name
	seqs   map[uint64][]seqEntry // whole-document position sequences by pair fingerprint
}

// Stats summarizes the cache: probe hits and misses, entry count, and
// approximate resident bytes.
type Stats struct {
	Hits        int64
	Misses      int64
	Entries     int64
	ApproxBytes int64
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.RLock()
	entries := int64(len(c.bounds) + len(c.seqs))
	bytes := c.bytes
	c.mu.RUnlock()
	return Stats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Entries:     entries,
		ApproxBytes: bytes,
	}
}

// Per-entry approximate sizes: slice headers, map-key overhead, and 8
// bytes per cached position. These are estimates of resident memory, not
// allocation counts.
func boundSize(e boundEntry) int64 { return 64 + 8*int64(len(e.pre)+len(e.suf)) }
func seqSize(e seqEntry) int64 {
	return 96 + 8*int64(len(e.ps)) + 48*int64(len(e.rr.Left)+len(e.rr.Right))
}

type boundEntry struct {
	pre, suf []int
}

// seqEntry is one memoized position sequence. Entries are bucketed by
// regex-pair fingerprint, and a bucket resolves fingerprint collisions by
// exact pair comparison: hashing token names directly is far cheaper than
// materializing RegexPair.String() on every probe of the hot loop.
type seqEntry struct {
	rr RegexPair
	ps []int
}

// NewCache creates the evaluation cache of one immutable document text.
func NewCache(text string) *Cache {
	return &Cache{
		text:   text,
		bounds: map[string]boundEntry{},
		seqs:   map[uint64][]seqEntry{},
	}
}

// Text returns the cached document text.
func (c *Cache) Text() string { return c.text }

// Positions returns the position sequence of rr within text[lo:hi],
// equivalent to rr.Positions(text[lo:hi]). Over the whole document the
// sequence is memoized per regex pair; over any other range it is computed
// afresh and not stored. The scan walks the anchor window of rr
// (AttrEval.anchorIn), so it visits only the boundaries of the pair's most
// selective edge token instead of every position.
func (c *Cache) Positions(lo, hi int, rr RegexPair) []int {
	if len(rr.Left) == 0 && len(rr.Right) == 0 {
		return nil
	}
	whole := lo == 0 && hi == len(c.text)
	var h uint64
	if whole {
		h = pairFingerprint(rr)
		if ps, ok := c.seqGet(h, rr); ok {
			return ps
		}
	}

	s := c.text[lo:hi]
	ev := NewAttrEval(RegPos{RR: rr})
	bs, i, j := ev.anchorIn(c, lo, hi)
	var out []int
	for ; i < j; i++ {
		if k := clip(bs[i], lo, hi); rr.matchesAt(s, k) {
			out = append(out, k)
		}
	}

	if whole {
		c.mu.Lock()
		// Concurrent misses on one pair store its sequence once.
		if ps, ok := c.seqIn(h, rr); ok {
			out = ps
		} else {
			e := seqEntry{rr: rr, ps: out}
			c.seqs[h] = append(c.seqs[h], e)
			c.bytes += seqSize(e)
		}
		c.mu.Unlock()
	}
	return out
}

// seqGet looks up a memoized position sequence by its pair fingerprint h
// and records the probe as a cache hit or miss.
func (c *Cache) seqGet(h uint64, rr RegexPair) ([]int, bool) {
	c.mu.RLock()
	ps, ok := c.seqIn(h, rr)
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return ps, ok
}

// seqIn returns the sequence stored for rr in the bucket of its
// fingerprint h, resolving fingerprint collisions by exact pair
// comparison. Requires c.mu held.
func (c *Cache) seqIn(h uint64, rr RegexPair) ([]int, bool) {
	for _, e := range c.seqs[h] {
		if pairEqual(e.rr, rr) {
			return e.ps, true
		}
	}
	return nil, false
}

// entry returns the whole-document boundary entry of t, scanning the
// document on the first call for t. It records the probe as a cache hit
// or miss.
func (c *Cache) entry(t Token) boundEntry {
	c.mu.RLock()
	w, ok := c.bounds[t.Name]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		return w
	}
	c.misses.Add(1)
	w = scanBoundaries(c.text, t)
	c.mu.Lock()
	if _, raced := c.bounds[t.Name]; !raced {
		c.bounds[t.Name] = w
		c.bytes += boundSize(w)
	}
	c.mu.Unlock()
	return w
}

// anchor is one token whose whole-document boundary entry an evaluator
// walks, with the window of the last non-empty range it searched there.
// The entry is resolved on first use in a cache, so an evaluator probes
// the cache once per anchor however many ranges it evaluates.
type anchor struct {
	t    Token
	c    *Cache // the cache e belongs to
	e    boundEntry
	i, j int // the last window, where the next one is searched from
}

// window returns the index range [i, j) of the runs (class token) or the
// occurrences (literal) of the anchor's entry that belong to text[lo:hi],
// resolving the entry on the first use in c. Class runs are maximal and
// disjoint, so the runs of the sub-range are the whole-document runs that
// overlap [lo,hi), with a run cut at lo or hi clipped to it. A literal
// occurrence belongs to the sub-range only when it lies wholly inside
// (occurrences may overlap each other). Clipped and rebased (clip), the
// window's starts and ends are exactly what scanBoundaries returns over
// text[lo:hi]. Each bound is searched from the previous window's (seek),
// so ranges taken in ascending order cost amortized O(1) each.
func (a *anchor) window(c *Cache, lo, hi int) (i, j int) {
	if a.c != c {
		*a = anchor{t: a.t, c: c, e: c.entry(a.t)}
	}
	if lo >= hi {
		return 0, 0
	}
	if n := len(a.t.lit); n > 0 {
		a.i = seek(a.e.pre, lo, a.i)
		a.j = max(a.i, seek(a.e.pre, hi-n+1, a.j))
	} else {
		a.i = seek(a.e.suf, lo+1, a.i) // first run ending after lo
		a.j = seek(a.e.pre, hi, a.j)   // first run starting at or after hi
	}
	return a.i, a.j
}

// seek returns the index of the first element of the ascending list xs
// that is at least x. It gallops forward from h, the answer for an
// earlier key, and binary-searches xs[:h] when x lies behind it, so any
// key order is correct and a key d elements past h costs O(log d).
func seek(xs []int, x, h int) int {
	lo, hi := 0, h
	if h == 0 || xs[h-1] < x {
		lo = h
		for step := 1; hi < len(xs) && xs[hi] < x; step *= 2 {
			lo, hi = hi+1, hi+step
		}
		hi = min(hi, len(xs))
	}
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); xs[m] < x {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// clip clamps a whole-document boundary b to [lo, hi] and rebases it to lo.
func clip(b, lo, hi int) int { return min(max(b, lo), hi) - lo }

// scanBoundaries computes the prefix/suffix boundary positions of one
// token over s (the body of a boundary entry). Class tokens match maximal
// runs: prefix positions are run starts, suffix positions run ends.
// Literal occurrences may overlap.
func scanBoundaries(s string, t Token) boundEntry {
	var e boundEntry
	if t.lit != "" {
		for k := 0; ; k++ {
			d := strings.Index(s[k:], t.lit)
			if d < 0 {
				return e
			}
			k += d
			e.pre = append(e.pre, k)
			e.suf = append(e.suf, k+len(t.lit))
		}
	}
	k := 0
	for k < len(s) {
		if !t.class[s[k]] {
			k++
			continue
		}
		start := k
		for k < len(s) && t.class[s[k]] {
			k++
		}
		e.pre = append(e.pre, start)
		e.suf = append(e.suf, k)
	}
	return e
}

// EvalAttr evaluates a position attribute against text[lo:hi], equivalent
// to a.Eval(text[lo:hi]): the one-range form of AttrEval.
func (c *Cache) EvalAttr(lo, hi int, a Attr) (int, error) {
	e := NewAttrEval(a)
	return e.Eval(c, lo, hi)
}

// CountIn returns CountMatches(r, text[lo:hi]): the one-range form of
// CountEval.
func (c *Cache) CountIn(lo, hi int, r Regex) int {
	e := NewCountEval(r)
	return e.Count(c, lo, hi)
}

// AttrEval evaluates one position attribute over ranges of a cached
// document, equivalent to a.Eval(text[lo:hi]) on each. A RegPos walks the
// anchor window of its regex pair (anchorIn) from the end the sign of K
// names, checks each candidate with the exact matchers on text[lo:hi],
// and stops at the |K|-th match. Its two anchors — the ends of rr.Left's
// last token and the starts of rr.Right's first — are resolved once, and
// each range's window is searched from the previous range's, so
// evaluating an attribute on every line of a document, or on the
// suffixes or prefixes of ascending λ-bound positions, costs the
// candidates walked plus amortized O(1) per range. It neither allocates
// (on a match) nor stores anything in the cache.
//
// An AttrEval is the state of one walk: make one per sequence, never keep
// it on a program, which may run on many goroutines at once.
type AttrEval struct {
	a           Attr
	v           RegPos
	reg         bool // a is v
	left, right anchor
}

// NewAttrEval returns an evaluator of a, bound to a cache on first use.
func NewAttrEval(a Attr) AttrEval {
	e := AttrEval{a: a}
	if v, ok := a.(RegPos); ok {
		e.v, e.reg = v, true
		if len(v.RR.Left) > 0 {
			e.left.t = v.RR.Left[len(v.RR.Left)-1]
		}
		if len(v.RR.Right) > 0 {
			e.right.t = v.RR.Right[0]
		}
	}
	return e
}

// Eval returns the attribute's position in c's text[lo:hi], relative to
// lo. Ranges may come in any order and from any cache.
func (e *AttrEval) Eval(c *Cache, lo, hi int) (int, error) {
	if !e.reg {
		return e.a.Eval(c.text[lo:hi])
	}
	v := &e.v
	if v.K == 0 || len(v.RR.Left) == 0 && len(v.RR.Right) == 0 {
		return 0, errNoRegPosMatch(*v)
	}
	bs, i, j := e.anchorIn(c, lo, hi)
	// Each candidate yields at most one position.
	if v.K > j-i || -v.K > j-i {
		return 0, errNoRegPosMatch(*v)
	}
	s := c.text[lo:hi]
	n := 0
	if v.K > 0 {
		for ; i < j; i++ {
			if k := clip(bs[i], lo, hi); v.RR.matchesAt(s, k) {
				if n++; n == v.K {
					return k, nil
				}
			}
		}
	} else {
		for j--; j >= i; j-- {
			if k := clip(bs[j], lo, hi); v.RR.matchesAt(s, k) {
				if n++; n == -v.K {
					return k, nil
				}
			}
		}
	}
	return 0, errNoRegPosMatch(*v)
}

// anchorIn returns the candidate positions of the pair within c's
// text[lo:hi] as the window bs[i:j] of one whole-document boundary list:
// the ends of rr.Left's last token or the starts of rr.Right's first
// token, whichever window is shorter. Each element, clipped to the range
// (clip), is one of that token's boundaries over text[lo:hi], in
// ascending order, so every position of rr is among them. The pair must
// have a non-empty side.
func (e *AttrEval) anchorIn(c *Cache, lo, hi int) (bs []int, i, j int) {
	rr := e.v.RR
	if len(rr.Left) > 0 {
		i, j = e.left.window(c, lo, hi)
		bs = e.left.e.suf
		if len(rr.Right) == 0 || i == j {
			return bs, i, j
		}
	}
	ri, rj := e.right.window(c, lo, hi)
	if len(rr.Left) == 0 || rj-ri < j-i {
		return e.right.e.pre, ri, rj
	}
	return bs, i, j
}

// CountEval counts the matches of one regex over ranges of a cached
// document, equivalent to CountMatches(r, text[lo:hi]) on each. It tests
// r only at the starts of its first token within the range: every match
// of r begins at one, so taking them in order and skipping those inside
// the previous match counts the same greedy non-overlapping matches. That
// token's entry is resolved once and its windows are searched as an
// AttrEval's are; like an AttrEval, a CountEval is the state of one walk.
type CountEval struct {
	r     Regex
	first anchor
}

// NewCountEval returns a counter of r, bound to a cache on first use.
func NewCountEval(r Regex) CountEval {
	e := CountEval{r: r}
	if len(r) > 0 {
		e.first.t = r[0]
	}
	return e
}

// Count returns the number of matches of the regex in c's text[lo:hi].
func (e *CountEval) Count(c *Cache, lo, hi int) int {
	if len(e.r) == 0 {
		return 0
	}
	s := c.text[lo:hi]
	i, j := e.first.window(c, lo, hi)
	n, next := 0, 0
	for ; i < j; i++ {
		k := clip(e.first.e.pre[i], lo, hi)
		if k < next {
			continue
		}
		if m := e.r.MatchPrefix(s, k); m > 0 {
			n++
			next = k + m
		}
	}
	return n
}

// regexFingerprintFrom extends an FNV-1a hash with a regex's token names.
func regexFingerprintFrom(h uint64, r Regex) uint64 {
	for _, t := range r {
		for i := 0; i < len(t.Name); i++ {
			h ^= uint64(t.Name[i])
			h *= 1099511628211
		}
		h ^= 0x1f // name separator
		h *= 1099511628211
	}
	return h
}

// pairFingerprint hashes both sides of a regex pair with a side separator.
func pairFingerprint(rr RegexPair) uint64 {
	h := regexFingerprintFrom(14695981039346656037, rr.Left)
	h ^= 0x2f // side separator
	h *= 1099511628211
	return regexFingerprintFrom(h, rr.Right)
}

// regexEqual reports token-wise equality by name (names uniquely identify
// tokens, including dynamic ones).
func regexEqual(a, b Regex) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name {
			return false
		}
	}
	return true
}

func pairEqual(a, b RegexPair) bool {
	return regexEqual(a.Left, b.Left) && regexEqual(a.Right, b.Right)
}

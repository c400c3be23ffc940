package tokens

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Cache is a document-scoped evaluation cache. It is owned by a document
// (one immutable text) and memoizes the three quantities the synthesis
// hot loop recomputes most: per-token boundary positions, regex-pair
// position sequences, and regex match counts. Sequences and counts are
// keyed on half-open ranges [lo, hi) of the document text, so the same
// answer is shared across candidate programs, validation runs, and
// refinement iterations. Token boundaries are held once per token, over
// the whole document, and every sub-range is clipped from that entry (see
// Boundaries).
//
// All methods are safe for concurrent use; returned slices are shared and
// must be treated as read-only. The backing text never changes, so cached
// entries are valid forever — eviction exists only to bound memory, and
// whole-document entries (the hottest: every ⊥-relative candidate
// evaluates against the whole region) are pinned.
type Cache struct {
	text string

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64 // entries dropped by any eviction path
	maxBytes  atomic.Int64 // 0 = no byte cap

	mu     sync.RWMutex
	bytes  int64                 // approximate resident bytes of all entries (guarded by mu)
	bounds map[string]boundEntry // whole-document boundaries by token name
	seqs   map[seqKey][]seqEntry
	counts map[countKey][]countEntry
}

// Stats summarizes the cache: probe hits and misses, entry count,
// entries evicted over the cache's lifetime, and approximate resident
// bytes.
type Stats struct {
	Hits        int64
	Misses      int64
	Entries     int64
	Evictions   int64
	ApproxBytes int64
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.RLock()
	entries := int64(len(c.bounds) + len(c.seqs) + len(c.counts))
	bytes := c.bytes
	c.mu.RUnlock()
	return Stats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Entries:     entries,
		Evictions:   c.evictions.Load(),
		ApproxBytes: bytes,
	}
}

// SetMaxBytes caps the cache's approximate resident bytes (0 removes the
// cap). When the cache is already over the new cap, non-pinned entries are
// evicted immediately.
func (c *Cache) SetMaxBytes(n int64) {
	c.maxBytes.Store(n)
	if n <= 0 {
		return
	}
	c.mu.Lock()
	c.enforceBytesLocked()
	c.mu.Unlock()
}

// Per-entry approximate sizes: slice headers, map-key overhead, and 8
// bytes per cached position. These are estimates, not allocations counts —
// the cap is a soft bound on resident memory.
func boundSize(e boundEntry) int64 { return 64 + 8*int64(len(e.pre)+len(e.suf)) }
func seqSize(e seqEntry) int64 {
	return 96 + 8*int64(len(e.ps)) + 48*int64(len(e.rr.Left)+len(e.rr.Right))
}
func countSize(e countEntry) int64 { return 64 + 48*int64(len(e.r)) }

// enforceBytesLocked evicts non-pinned sequence entries, then non-pinned
// count entries, when the byte cap is exceeded. Requires c.mu held for
// writing.
func (c *Cache) enforceBytesLocked() {
	limit := c.maxBytes.Load()
	if limit <= 0 || c.bytes <= limit {
		return
	}
	c.evictSeqsLocked()
	if c.bytes <= limit {
		return
	}
	c.evictCountsLocked()
}

type boundEntry struct {
	pre, suf []int
}

// seqKey buckets position-sequence entries by range and regex-pair
// fingerprint; the entry list resolves fingerprint collisions by exact
// pair comparison. Hashing token names directly is far cheaper than
// materializing RegexPair.String() on every probe of the hot loop.
type seqKey struct {
	lo, hi int
	h      uint64
}

type seqEntry struct {
	rr RegexPair
	ps []int
}

// countKey buckets match-count entries by range and regex fingerprint.
type countKey struct {
	lo, hi int
	h      uint64
}

type countEntry struct {
	r Regex
	n int
}

// Cache size bounds. Sub-document ranges (lines, suffixes, prefixes)
// repeat heavily but are unbounded in principle; whole-document entries
// are never evicted.
const (
	maxSeqEntries   = 32768
	maxCountEntries = 32768
)

// smallRange bounds the ranges whose RegPos evaluation materializes and
// memoizes the full position sequence. Sequence-map functions evaluate one
// attribute per λ-bound position, each over a different suffix or prefix
// of the input — materializing every such sequence would make mapping
// quadratic in document size (see RegPos.Eval), so larger ranges keep the
// lazy directional scan unless their sequence is already cached. Small
// ranges (lines, records) repeat across the candidate cross product, where
// memoization wins.
const smallRange = 2048

// NewCache creates the evaluation cache of one immutable document text.
func NewCache(text string) *Cache {
	return &Cache{
		text:   text,
		bounds: map[string]boundEntry{},
		seqs:   map[seqKey][]seqEntry{},
		counts: map[countKey][]countEntry{},
	}
}

// Text returns the cached document text.
func (c *Cache) Text() string { return c.text }

func (c *Cache) pinned(lo, hi int) bool { return lo == 0 && hi == len(c.text) }

// Positions returns the position sequence of rr within text[lo:hi],
// equivalent to rr.Positions(text[lo:hi]) but memoized and anchored on
// cached token boundaries: the scan visits only the boundary positions of
// the pair's most selective edge token instead of every position.
func (c *Cache) Positions(lo, hi int, rr RegexPair) []int {
	if len(rr.Left) == 0 && len(rr.Right) == 0 {
		return nil
	}
	key := seqKey{lo: lo, hi: hi, h: pairFingerprint(rr)}
	if ps, ok := c.seqGet(key, rr); ok {
		return ps
	}

	s := c.text[lo:hi]
	var cands []int
	haveAnchor := false
	if len(rr.Left) > 0 {
		_, ends := c.Boundaries(lo, hi, rr.Left[len(rr.Left)-1])
		cands, haveAnchor = ends, true
	}
	if len(rr.Right) > 0 {
		starts, _ := c.Boundaries(lo, hi, rr.Right[0])
		if !haveAnchor || len(starts) < len(cands) {
			cands = starts
		}
	}
	var out []int
	for _, k := range cands {
		if rr.Left.MatchSuffix(s, k) < 0 {
			continue
		}
		if rr.Right.MatchPrefix(s, k) < 0 {
			continue
		}
		out = append(out, k)
	}

	e := seqEntry{rr: rr, ps: out}
	c.mu.Lock()
	if len(c.seqs) >= maxSeqEntries && !c.pinned(lo, hi) {
		c.evictSeqsLocked()
	}
	c.seqs[key] = append(c.seqs[key], e)
	c.bytes += seqSize(e)
	c.enforceBytesLocked()
	c.mu.Unlock()
	return out
}

// seqGet looks up a memoized position sequence, resolving fingerprint
// collisions by exact pair comparison. It records the probe as a cache hit
// or miss.
func (c *Cache) seqGet(key seqKey, rr RegexPair) ([]int, bool) {
	c.mu.RLock()
	for _, e := range c.seqs[key] {
		if pairEqual(e.rr, rr) {
			c.mu.RUnlock()
			c.hits.Add(1)
			return e.ps, true
		}
	}
	c.mu.RUnlock()
	c.misses.Add(1)
	return nil, false
}

// Boundaries returns the boundary positions of token t within text[lo:hi]:
// the positions where t matches as a prefix (run starts) and as a suffix
// (run ends), relative to lo. Both slices are read-only.
//
// The first call for t scans the whole document and caches that one
// entry; every sub-range is then answered by clipping it (clipBoundaries)
// rather than rescanning text[lo:hi], and the clipped answer is not
// stored, so sub-ranges cost no cache memory.
func (c *Cache) Boundaries(lo, hi int, t Token) (pre, suf []int) {
	c.mu.RLock()
	w, ok := c.bounds[t.Name]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
		w = scanBoundaries(c.text, t)
		c.mu.Lock()
		if _, raced := c.bounds[t.Name]; !raced {
			c.bounds[t.Name] = w
			c.bytes += boundSize(w)
			c.enforceBytesLocked()
		}
		c.mu.Unlock()
	}
	if c.pinned(lo, hi) {
		return w.pre, w.suf
	}
	e := clipBoundaries(w, lo, hi, len(t.lit))
	return e.pre, e.suf
}

// clipBoundaries derives the boundaries of a token within [lo,hi) from its
// whole-document entry w, returning exactly what scanBoundaries returns
// over text[lo:hi]. litLen is the literal length of a dynamic token and 0
// for a class token. Class runs are maximal and disjoint, so the runs of
// the sub-range are the whole-document runs that overlap [lo,hi), with the
// runs cut at lo or hi clipped to it. A literal occurrence belongs to the
// sub-range only when it lies wholly inside (occurrences may overlap each
// other). Positions are rebased to lo.
func clipBoundaries(w boundEntry, lo, hi, litLen int) boundEntry {
	if lo >= hi {
		return boundEntry{}
	}
	var i, j int
	if litLen > 0 {
		i = sort.SearchInts(w.pre, lo)
		j = sort.SearchInts(w.pre, hi-litLen+1)
	} else {
		i = sort.SearchInts(w.suf, lo+1) // first run ending after lo
		j = sort.SearchInts(w.pre, hi)   // first run starting at or after hi
	}
	n := j - i
	if n <= 0 {
		return boundEntry{}
	}
	buf := make([]int, 2*n)
	e := boundEntry{pre: buf[:n:n], suf: buf[n:]}
	for k := 0; k < n; k++ {
		e.pre[k] = max(w.pre[i+k], lo) - lo
		e.suf[k] = min(w.suf[i+k], hi) - lo
	}
	return e
}

// scanBoundaries computes the prefix/suffix boundary positions of one
// token over s (the per-token body of NewIndex). Class tokens match
// maximal runs: prefix positions are run starts, suffix positions run
// ends.
func scanBoundaries(s string, t Token) boundEntry {
	var e boundEntry
	if t.lit != "" {
		for k := 0; k+len(t.lit) <= len(s); k++ {
			if s[k:k+len(t.lit)] == t.lit {
				e.pre = append(e.pre, k)
				e.suf = append(e.suf, k+len(t.lit))
			}
		}
		return e
	}
	k := 0
	for k < len(s) {
		if !t.class(s[k]) {
			k++
			continue
		}
		start := k
		for k < len(s) && t.class(s[k]) {
			k++
		}
		e.pre = append(e.pre, start)
		e.suf = append(e.suf, k)
	}
	return e
}

// EvalAttr evaluates a position attribute against text[lo:hi], equivalent
// to a.Eval(text[lo:hi]). RegPos attributes over small or whole-document
// ranges resolve against the memoized position sequence of their regex
// pair, so re-evaluating the same pair over the same range — the common
// case when attribute candidates are crossed into pair programs — costs
// one map lookup. Large sub-document ranges keep RegPos's lazy directional
// scan (consulting the cache first) to avoid quadratic mapping.
func (c *Cache) EvalAttr(lo, hi int, a Attr) (int, error) {
	v, ok := a.(RegPos)
	if !ok {
		return a.Eval(c.text[lo:hi])
	}
	if hi-lo <= smallRange || c.pinned(lo, hi) {
		return v.evalIn(c.Positions(lo, hi, v.RR))
	}
	key := seqKey{lo: lo, hi: hi, h: pairFingerprint(v.RR)}
	if ps, hit := c.seqGet(key, v.RR); hit {
		return v.evalIn(ps)
	}
	return v.Eval(c.text[lo:hi])
}

// CountIn returns CountMatches(r, text[lo:hi]) memoized per (range,
// regex). Line predicates re-count the same regex over the same line once
// per candidate program; the count is a pure function of the range.
func (c *Cache) CountIn(lo, hi int, r Regex) int {
	key := countKey{lo: lo, hi: hi, h: regexFingerprint(r)}
	c.mu.RLock()
	for _, e := range c.counts[key] {
		if regexEqual(e.r, r) {
			c.mu.RUnlock()
			c.hits.Add(1)
			return e.n
		}
	}
	c.mu.RUnlock()
	c.misses.Add(1)
	n := CountMatches(r, c.text[lo:hi])
	e := countEntry{r: r, n: n}
	c.mu.Lock()
	if len(c.counts) >= maxCountEntries && !c.pinned(lo, hi) {
		c.evictCountsLocked()
	}
	c.counts[key] = append(c.counts[key], e)
	c.bytes += countSize(e)
	c.enforceBytesLocked()
	c.mu.Unlock()
	return n
}

// IndexFor returns the boundary index of text[lo:hi] for a token pool,
// built from the per-token whole-document entries of Boundaries, so the
// token scans are shared with Positions and across calls.
func (c *Cache) IndexFor(lo, hi int, pool []Token) *Index {
	return buildIndex(c.text[lo:hi], pool, func(t Token) (pre, suf []int) {
		return c.Boundaries(lo, hi, t)
	})
}

// evictSeqsLocked drops non-pinned position-sequence entries. Requires
// c.mu held for writing.
func (c *Cache) evictSeqsLocked() {
	for k, es := range c.seqs {
		if !c.pinned(k.lo, k.hi) {
			for _, e := range es {
				c.bytes -= seqSize(e)
			}
			c.evictions.Add(1)
			delete(c.seqs, k)
		}
	}
}

// evictCountsLocked drops non-pinned match-count entries. Requires c.mu
// held for writing.
func (c *Cache) evictCountsLocked() {
	for k, es := range c.counts {
		if !c.pinned(k.lo, k.hi) {
			for _, e := range es {
				c.bytes -= countSize(e)
			}
			c.evictions.Add(1)
			delete(c.counts, k)
		}
	}
}

// regexFingerprint extends an FNV-1a hash with a regex's token names.
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

func regexFingerprint(r Regex) uint64 {
	return regexFingerprintFrom(14695981039346656037, r)
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

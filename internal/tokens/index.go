package tokens

// Index precomputes, for every token of a pool, the positions where the
// token matches as a prefix (run starts) and as a suffix (run ends) of a
// string. Position-sequence learning evaluates thousands of candidate
// regex pairs against the same strings; anchoring each pair on its most
// selective token's precomputed positions turns the per-pair cost from
// O(len(s)) into O(matches), which keeps synthesis interactive on large
// documents.
type Index struct {
	s   string
	pre map[string][]int
	suf map[string][]int
}

// NewIndex builds the boundary index of s for a token pool.
func NewIndex(s string, toks []Token) *Index {
	return buildIndex(s, toks, func(t Token) (pre, suf []int) {
		e := scanBoundaries(s, t)
		return e.pre, e.suf
	})
}

// buildIndex assembles the index of s from the boundaries of each distinct
// pool token.
func buildIndex(s string, toks []Token, bounds func(Token) (pre, suf []int)) *Index {
	ix := &Index{s: s, pre: map[string][]int{}, suf: map[string][]int{}}
	for _, t := range toks {
		if _, done := ix.pre[t.Name]; !done {
			ix.pre[t.Name], ix.suf[t.Name] = bounds(t)
		}
	}
	return ix
}

// Positions returns the position sequence of rr in the indexed string,
// equivalent to rr.Positions(s) but anchored on precomputed boundaries.
func (ix *Index) Positions(rr RegexPair) []int {
	if len(rr.Left) == 0 && len(rr.Right) == 0 {
		return nil
	}
	// Anchor on whichever side has an indexed token with fewer matches.
	var cands []int
	haveAnchor := false
	if len(rr.Left) > 0 {
		if ends, ok := ix.suf[rr.Left[len(rr.Left)-1].Name]; ok {
			cands, haveAnchor = ends, true
		}
	}
	if len(rr.Right) > 0 {
		if starts, ok := ix.pre[rr.Right[0].Name]; ok {
			if !haveAnchor || len(starts) < len(cands) {
				cands, haveAnchor = starts, true
			}
		}
	}
	if !haveAnchor {
		return rr.Positions(ix.s) // token outside the pool: fall back
	}
	var out []int
	for _, k := range cands {
		if rr.Left.MatchSuffix(ix.s, k) < 0 {
			continue
		}
		if rr.Right.MatchPrefix(ix.s, k) < 0 {
			continue
		}
		out = append(out, k)
	}
	return out
}

// EvalAttr evaluates a position attribute against the indexed string,
// equivalent to a.Eval(s).
func (ix *Index) EvalAttr(a Attr) (int, error) {
	switch v := a.(type) {
	case RegPos:
		return v.evalIn(ix.Positions(v.RR))
	default:
		return a.Eval(ix.s)
	}
}

// evalIn resolves the k-th position of a precomputed sequence.
func (a RegPos) evalIn(ps []int) (int, error) {
	idx := a.K - 1
	if a.K < 0 {
		idx = len(ps) + a.K
	}
	if a.K == 0 || idx < 0 || idx >= len(ps) {
		return 0, errNoRegPosMatch(a)
	}
	return ps[idx], nil
}

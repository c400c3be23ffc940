package textlang

import (
	"fmt"
	"sort"

	"flashextract/internal/core"
	"flashextract/internal/tokens"
)

// inputRegion extracts the R0 binding from a state.
func inputRegion(st core.State) (Region, error) {
	r, ok := st.Input().(Region)
	if !ok {
		return Region{}, fmt.Errorf("textlang: input is %T, want a text region", st.Input())
	}
	return r, nil
}

// lambdaRegion extracts the λ-bound line variable x from a state.
func lambdaRegion(st core.State) (Region, error) {
	v, ok := st.Lookup(lambdaVar)
	if !ok {
		return Region{}, fmt.Errorf("textlang: free variable %s is unbound", lambdaVar)
	}
	r, ok := v.(Region)
	if !ok {
		return Region{}, fmt.Errorf("textlang: %s is %T, want a text region", lambdaVar, v)
	}
	return r, nil
}

// lambdaPos extracts the λ-bound position variable x from a state.
func lambdaPos(st core.State) (int, error) {
	v, ok := st.Lookup(lambdaVar)
	if !ok {
		return 0, fmt.Errorf("textlang: free variable %s is unbound", lambdaVar)
	}
	k, ok := v.(int)
	if !ok {
		return 0, fmt.Errorf("textlang: %s is %T, want a position", lambdaVar, v)
	}
	return k, nil
}

// lambdaVar is the λ-bound variable name used by all Ltext map and filter
// operators.
const lambdaVar = "x"

// splitLinesProg is the fixed expression split(R0, '\n').
type splitLinesProg struct{}

// splitLines is the canonical instance of the fixed expression.
var splitLines = splitLinesProg{}

// Exec splits the input region into its lines.
func (splitLinesProg) Exec(st core.State) (core.Value, error) {
	r0, err := inputRegion(st)
	if err != nil {
		return nil, err
	}
	lines := linesIn(r0)
	out := make([]core.Value, len(lines))
	for i, l := range lines {
		out[i] = l
	}
	return out, nil
}

func (splitLinesProg) String() string { return "split(R0, '\\n')" }

// Cost makes the fixed expression free for ranking purposes.
func (splitLinesProg) Cost() int { return 0 }

// evalPos evaluates a position attribute over Text[lo:hi] through the
// document's evaluation cache.
func evalPos(d *Document, lo, hi int, a tokens.Attr) (int, error) {
	return d.cache.EvalAttr(lo, hi, a)
}

// positionsIn returns the position sequence of rr within Text[lo:hi]
// through the document's evaluation cache.
func positionsIn(d *Document, lo, hi int, rr tokens.RegexPair) []int {
	return d.cache.Positions(lo, hi, rr)
}

// countIn counts the matches of r within Text[lo:hi] through the
// document's evaluation cache; the isolated-substring semantics match
// CountMatches on the slice.
func countIn(d *Document, lo, hi int, r tokens.Regex) int {
	return d.cache.CountIn(lo, hi, r)
}

// posSeqProg is PosSeq(R0, rr): the sequence of absolute positions in R0
// identified by the regex pair rr.
type posSeqProg struct {
	rr tokens.RegexPair
}

func (p posSeqProg) Exec(st core.State) (core.Value, error) {
	r0, err := inputRegion(st)
	if err != nil {
		return nil, err
	}
	ps := positionsIn(r0.Doc, r0.Start, r0.End, p.rr)
	out := make([]core.Value, len(ps))
	for i, k := range ps {
		out[i] = r0.Start + k
	}
	return out, nil
}

func (p posSeqProg) String() string { return fmt.Sprintf("PosSeq(R0, %s)", p.rr) }

// linePairProg is λx: Pair(Pos(x, p1), Pos(x, p2)) — the map function of
// the LinesMap rule of SS, producing a region within the line x.
type linePairProg struct {
	p1, p2 tokens.Attr
}

func (p linePairProg) Exec(st core.State) (core.Value, error) {
	x, err := lambdaRegion(st)
	if err != nil {
		return nil, err
	}
	a, err := evalPos(x.Doc, x.Start, x.End, p.p1)
	if err != nil {
		return nil, err
	}
	b, err := evalPos(x.Doc, x.Start, x.End, p.p2)
	if err != nil {
		return nil, err
	}
	if a > b {
		return nil, core.ErrNoMatch
	}
	return Region{Doc: x.Doc, Start: x.Start + a, End: x.Start + b}, nil
}

func (p linePairProg) String() string {
	return fmt.Sprintf("Pair(Pos(x, %s), Pos(x, %s))", p.p1, p.p2)
}

// linePosProg is λx: Pos(x, p) — the map function of the LinesMap rule of
// PS, producing a position within the line x.
type linePosProg struct {
	p tokens.Attr
}

func (p linePosProg) Exec(st core.State) (core.Value, error) {
	x, err := lambdaRegion(st)
	if err != nil {
		return nil, err
	}
	k, err := evalPos(x.Doc, x.Start, x.End, p.p)
	if err != nil {
		return nil, err
	}
	return x.Start + k, nil
}

func (p linePosProg) String() string { return fmt.Sprintf("Pos(x, %s)", p.p) }

// startPairProg is λx: Pair(x, Pos(R0[x:], p)) — the map function of
// StartSeqMap: x is a start position, and the end position is found by
// evaluating p on the suffix of R0 starting at x.
type startPairProg struct {
	p tokens.Attr
}

func (p startPairProg) Exec(st core.State) (core.Value, error) {
	x, err := lambdaPos(st)
	if err != nil {
		return nil, err
	}
	r0, err := inputRegion(st)
	if err != nil {
		return nil, err
	}
	if x < r0.Start || x > r0.End {
		return nil, core.ErrNoMatch
	}
	e, err := evalPos(r0.Doc, x, r0.End, p.p)
	if err != nil {
		return nil, err
	}
	return Region{Doc: r0.Doc, Start: x, End: x + e}, nil
}

func (p startPairProg) String() string {
	return fmt.Sprintf("Pair(x, Pos(R0[x:], %s))", p.p)
}

// endPairProg is λx: Pair(Pos(R0[:x], p), x) — the map function of
// EndSeqMap: x is an end position, and the start position is found by
// evaluating p on the prefix of R0 ending at x.
type endPairProg struct {
	p tokens.Attr
}

func (p endPairProg) Exec(st core.State) (core.Value, error) {
	x, err := lambdaPos(st)
	if err != nil {
		return nil, err
	}
	r0, err := inputRegion(st)
	if err != nil {
		return nil, err
	}
	if x < r0.Start || x > r0.End {
		return nil, core.ErrNoMatch
	}
	s, err := evalPos(r0.Doc, r0.Start, x, p.p)
	if err != nil {
		return nil, err
	}
	return Region{Doc: r0.Doc, Start: r0.Start + s, End: x}, nil
}

func (p endPairProg) String() string {
	return fmt.Sprintf("Pair(Pos(R0[:x], %s), x)", p.p)
}

// regionPairProg is the N2 region program Pair(Pos(R0, p1), Pos(R0, p2)).
type regionPairProg struct {
	p1, p2 tokens.Attr
}

func (p regionPairProg) Exec(st core.State) (core.Value, error) {
	r0, err := inputRegion(st)
	if err != nil {
		return nil, err
	}
	a, err := evalPos(r0.Doc, r0.Start, r0.End, p.p1)
	if err != nil {
		return nil, err
	}
	b, err := evalPos(r0.Doc, r0.Start, r0.End, p.p2)
	if err != nil {
		return nil, err
	}
	if a > b {
		return nil, core.ErrNoMatch
	}
	return Region{Doc: r0.Doc, Start: r0.Start + a, End: r0.Start + b}, nil
}

func (p regionPairProg) String() string {
	return fmt.Sprintf("Pair(Pos(R0, %s), Pos(R0, %s))", p.p1, p.p2)
}

// predKind enumerates the line predicate forms of Fig. 7.
type predKind int

const (
	predTrue predKind = iota
	predStartsWith
	predEndsWith
	predContains
	predPredStartsWith
	predPredEndsWith
	predPredContains
	predSuccStartsWith
	predSuccEndsWith
	predSuccContains
)

var predNames = map[predKind]string{
	predTrue:           "True",
	predStartsWith:     "StartsWith",
	predEndsWith:       "EndsWith",
	predContains:       "Contains",
	predPredStartsWith: "PredStartsWith",
	predPredEndsWith:   "PredEndsWith",
	predPredContains:   "PredContains",
	predSuccStartsWith: "SuccStartsWith",
	predSuccEndsWith:   "SuccEndsWith",
	predSuccContains:   "SuccContains",
}

// linePred is a line predicate b: a boolean program over the λ-bound line
// x. The Pred*/Succ* forms take hints from the preceding and succeeding
// lines of x within R0.
type linePred struct {
	kind predKind
	r    tokens.Regex
	k    int // occurrence count for the Contains forms
}

func (p linePred) Exec(st core.State) (core.Value, error) {
	if p.kind == predTrue {
		return true, nil
	}
	x, err := lambdaRegion(st)
	if err != nil {
		return nil, err
	}
	rx, ok := p.subject(st, x)
	if !ok {
		return false, nil
	}
	switch p.kind {
	case predStartsWith, predPredStartsWith, predSuccStartsWith:
		return p.r.MatchPrefix(rx.Value(), 0) >= 0, nil
	case predEndsWith, predPredEndsWith, predSuccEndsWith:
		text := rx.Value()
		return p.r.MatchSuffix(text, len(text)) >= 0, nil
	default:
		return countIn(rx.Doc, rx.Start, rx.End, p.r) == p.k, nil
	}
}

// subject resolves the line the predicate inspects: x itself, or its
// predecessor/successor line within R0.
func (p linePred) subject(st core.State, x Region) (Region, bool) {
	switch p.kind {
	case predStartsWith, predEndsWith, predContains:
		return x, true
	}
	r0, err := inputRegion(st)
	if err != nil {
		return Region{}, false
	}
	lines := linesIn(r0)
	// Lines are disjoint and sorted by start, so the λ-bound line can be
	// located by binary search; predicates run once per line per candidate,
	// and a linear scan here is quadratic in the number of lines.
	idx := sort.Search(len(lines), func(i int) bool { return lines[i].Start >= x.Start })
	if idx >= len(lines) || lines[idx] != x {
		return Region{}, false
	}
	switch p.kind {
	case predPredStartsWith, predPredEndsWith, predPredContains:
		idx--
	default:
		idx++
	}
	if idx < 0 || idx >= len(lines) {
		return Region{}, false
	}
	return lines[idx], true
}

func (p linePred) String() string {
	if p.kind == predTrue {
		return "λx: True"
	}
	switch p.kind {
	case predContains, predPredContains, predSuccContains:
		return fmt.Sprintf("λx: %s(%s, %d, x)", predNames[p.kind], p.r, p.k)
	default:
		return fmt.Sprintf("λx: %s(%s, x)", predNames[p.kind], p.r)
	}
}

// ---- ranking costs (see core.Coster) ----

// Cost of a position sequence is the cost of its regex pair.
func (p posSeqProg) Cost() int { return p.rr.Cost() }

// Cost of a line pair is the cost of its two position attributes.
func (p linePairProg) Cost() int { return p.p1.Cost() + p.p2.Cost() }

// Cost of a line position is the cost of its attribute.
func (p linePosProg) Cost() int { return p.p.Cost() }

// Cost carries a small bias so that line-structured extraction is
// preferred over raw position pairing when both fit.
func (p startPairProg) Cost() int { return p.p.Cost() + 1 }

// Cost carries the same bias as startPairProg.
func (p endPairProg) Cost() int { return p.p.Cost() + 1 }

// Cost of a region pair is the cost of its two position attributes.
func (p regionPairProg) Cost() int { return p.p1.Cost() + p.p2.Cost() }

// Cost ranks self-inspecting predicates before neighbor-based ones,
// penalizes dynamic tokens (which overfit easily in predicates) and large
// exact occurrence counts (an incidental "exactly 13 words" match is
// almost never the intent), and puts the vacuous True last.
func (p linePred) Cost() int {
	base := 0
	switch p.kind {
	case predTrue:
		return 6
	case predStartsWith, predEndsWith, predContains:
	default:
		base = 3
	}
	k := p.k
	if k > 0 {
		k--
	}
	return base + len(p.r) + 3*p.r.DynamicCount() + k
}

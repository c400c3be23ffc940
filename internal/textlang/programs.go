package textlang

import (
	"fmt"
	"sort"

	"flashextract/internal/core"
	"flashextract/internal/poslang"
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
	return asRegion(v)
}

// asRegion asserts that a value of x is a text region.
func asRegion(v core.Value) (Region, error) {
	r, ok := v.(Region)
	if !ok {
		return Region{}, fmt.Errorf("textlang: %s is %T, want a text region", lambdaVar, v)
	}
	return r, nil
}

// lambdaVar is the λ-bound variable of all Ltext map and filter operators,
// the one the position sublanguage's bodies read.
const lambdaVar = poslang.X

// splitLinesProg is the fixed expression split(R0, '\n').
type splitLinesProg struct{}

// splitLines is the canonical instance of the fixed expression.
var splitLines = splitLinesProg{}

// splitKey keys the boxed lines of R0 in a spec state's exec memo.
type splitKey struct{ r0 Region }

// Exec splits the input region into its lines. Every FilterBool candidate
// of a synthesis call runs it on the same R0, so the boxed list is kept in
// the state's exec memo and shared read-only.
func (splitLinesProg) Exec(st core.State) (core.Value, error) {
	r0, err := inputRegion(st)
	if err != nil {
		return nil, err
	}
	return core.Memo(st, splitKey{r0}, func() (core.Value, error) {
		lines := linesIn(r0)
		out := make([]core.Value, len(lines))
		for i, l := range lines {
			out[i] = l
		}
		return out, nil
	})
}

func (splitLinesProg) String() string { return "split(R0, '\\n')" }

// Cost makes the fixed expression free for ranking purposes.
func (splitLinesProg) Cost() int { return 0 }

// linePairProg is λx: Pair(Pos(x, p1), Pos(x, p2)) — the map function of
// the LinesMap rule of SS, producing a region within the line x.
type linePairProg struct {
	p1, p2 tokens.Attr
}

func (p linePairProg) Exec(st core.State) (core.Value, error) {
	e1, e2 := tokens.NewAttrEval(p.p1), tokens.NewAttrEval(p.p2)
	return poslang.ExecOne(st, func(x core.Value) (core.Value, error) { return p.at(&e1, &e2, x) })
}

// ExecSeq zips the columns of p1 and p2 over the lines: the region of
// line i spans the two columns' positions there. The first line where a
// column fails, or where p1's position is past p2's, ends the sequence
// with its error, p1's first on a line where both fail, as evaluating
// the body line by line would.
func (p linePairProg) ExecSeq(st core.State, v string, xs []core.Value) ([]core.Value, error) {
	if v != lambdaVar {
		return core.ExecEach(p, st, v, xs)
	}
	c1, c2 := columnOf(st, p.p1, xs), columnOf(st, p.p2, xs)
	n := min(len(c1.pos), len(c2.pos))
	out := make([]core.Value, n)
	for i := range out {
		a, b := c1.pos[i], c2.pos[i]
		if a > b {
			return out[:i], core.ErrNoMatch
		}
		x := xs[i].(Region) // both columns hold line i
		out[i] = Region{Doc: x.Doc, Start: x.Start + a, End: x.Start + b}
	}
	if n == len(c1.pos) && c1.err != nil {
		return out, c1.err
	}
	return out, c2.err
}

// at evaluates the body on the line xv, with p1 and p2 bound in e1, e2.
func (p linePairProg) at(e1, e2 *tokens.AttrEval, xv core.Value) (core.Value, error) {
	x, err := asRegion(xv)
	if err != nil {
		return nil, err
	}
	a, err := e1.Eval(x.Doc.cache, x.Start, x.End)
	if err != nil {
		return nil, err
	}
	b, err := e2.Eval(x.Doc.cache, x.Start, x.End)
	if err != nil {
		return nil, err
	}
	if a > b {
		return nil, core.ErrNoMatch
	}
	return Region{Doc: x.Doc, Start: x.Start + a, End: x.Start + b}, nil
}

// column is one position attribute evaluated on every line of a line
// sequence, up to the first line where it fails: pos[i] is its position
// in line i, relative to the line's start, and err is its failure on line
// len(pos), or nil when it holds on every line.
type column struct {
	attr tokens.Attr
	pos  []int
	err  error
}

// columnKey keys a column in a spec state's exec memo: its attribute by
// fingerprint, which the column's attr confirms, and its line sequence by
// identity. A Map gets the same read-only slice from a memoized S on every
// run, so all the line pairs crossed with one S share the columns of their
// attributes.
type columnKey struct {
	attr  uint64
	lines *core.Value
	n     int
}

// columnOf returns the column of a over the lines xs, through st's exec
// memo.
func columnOf(st core.State, a tokens.Attr, xs []core.Value) *column {
	h, ok := tokens.AttrFingerprint(a)
	if !ok || len(xs) == 0 {
		return evalColumn(a, xs)
	}
	v, _ := core.Memo(st, columnKey{h, &xs[0], len(xs)}, func() (core.Value, error) { return evalColumn(a, xs), nil })
	if c := v.(*column); tokens.SameAttr(c.attr, a) {
		return c
	}
	return evalColumn(a, xs) // a fingerprint collision
}

// evalColumn evaluates a on the lines xs in order, binding it once.
func evalColumn(a tokens.Attr, xs []core.Value) *column {
	c := &column{attr: a, pos: make([]int, 0, len(xs))}
	e := tokens.NewAttrEval(a)
	for _, xv := range xs {
		x, err := asRegion(xv)
		if err != nil {
			c.err = err
			break
		}
		k, err := e.Eval(x.Doc.cache, x.Start, x.End)
		if err != nil {
			c.err = err
			break
		}
		c.pos = append(c.pos, k)
	}
	return c
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
	e := tokens.NewAttrEval(p.p)
	return poslang.ExecOne(st, func(x core.Value) (core.Value, error) { return p.at(&e, x) })
}

// ExecSeq binds p once for all the lines.
func (p linePosProg) ExecSeq(st core.State, v string, xs []core.Value) ([]core.Value, error) {
	e := tokens.NewAttrEval(p.p)
	return poslang.Sweep(p, st, v, xs, func(x core.Value) (core.Value, error) { return p.at(&e, x) })
}

// at evaluates the body on the line xv, with p bound in e.
func (p linePosProg) at(e *tokens.AttrEval, xv core.Value) (core.Value, error) {
	x, err := asRegion(xv)
	if err != nil {
		return nil, err
	}
	k, err := e.Eval(x.Doc.cache, x.Start, x.End)
	if err != nil {
		return nil, err
	}
	return x.Start + k, nil
}

func (p linePosProg) String() string { return fmt.Sprintf("Pos(x, %s)", p.p) }

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
	nb, count := neighbours{st: st}, tokens.NewCountEval(p.r)
	return poslang.ExecOne(st, func(x core.Value) (core.Value, error) { return p.at(&nb, &count, x) })
}

// ExecSeq binds the Contains regex once, and the neighbour forms read R0's
// lines once and walk a cursor down them.
func (p linePred) ExecSeq(st core.State, v string, xs []core.Value) ([]core.Value, error) {
	nb, count := neighbours{st: st}, tokens.NewCountEval(p.r)
	return poslang.Sweep(p, st, v, xs, func(x core.Value) (core.Value, error) { return p.at(&nb, &count, x) })
}

// at evaluates the predicate on the line xv, with R0's lines in nb and the
// Contains regex bound in count.
func (p linePred) at(nb *neighbours, count *tokens.CountEval, xv core.Value) (core.Value, error) {
	if p.kind == predTrue {
		return true, nil
	}
	x, err := asRegion(xv)
	if err != nil {
		return nil, err
	}
	rx, ok := x, true
	switch p.kind {
	case predPredStartsWith, predPredEndsWith, predPredContains:
		rx, ok = nb.of(x, -1)
	case predSuccStartsWith, predSuccEndsWith, predSuccContains:
		rx, ok = nb.of(x, 1)
	}
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
		return count.Count(rx.Doc.cache, rx.Start, rx.End) == p.k, nil
	}
}

// neighbours finds the lines next to lines of R0, reading R0's lines on
// first use. It looks for each line just after the last one found, so
// lines taken in order cost O(1) each; any other is binary-searched.
type neighbours struct {
	st    core.State
	read  bool
	lines []Region
	next  int
}

// of returns the line d lines away from x within R0 (d is -1 or 1), and
// false when x is not a line of R0 or has no such neighbour.
func (nb *neighbours) of(x Region, d int) (Region, bool) {
	if !nb.read {
		nb.read = true
		if r0, err := inputRegion(nb.st); err == nil {
			nb.lines = linesIn(r0)
		}
	}
	lines := nb.lines
	idx := nb.next
	if idx >= len(lines) || lines[idx] != x {
		// Lines are disjoint and sorted by start.
		idx = sort.Search(len(lines), func(i int) bool { return lines[i].Start >= x.Start })
		if idx >= len(lines) || lines[idx] != x {
			return Region{}, false
		}
	}
	nb.next = idx + 1
	if idx += d; idx < 0 || idx >= len(lines) {
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

// Cost of a line pair is the cost of its two position attributes.
func (p linePairProg) Cost() int { return p.p1.Cost() + p.p2.Cost() }

// Cost of a line position is the cost of its attribute.
func (p linePosProg) Cost() int { return p.p.Cost() }

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

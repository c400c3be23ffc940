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
	x, ok := xv.(Region)
	if !ok {
		return nil, fmt.Errorf("textlang: %s is %T, want a text region", poslang.X, xv)
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

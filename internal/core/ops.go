package core

import (
	"context"

	"flashextract/internal/trace"
)

// This file implements the modular inductive synthesis algorithms for the
// core algebra operators (Fig. 6 of the paper). Each operator learner is
// parameterized by the learners of its arguments, so any DSL assembled from
// these operators obtains its synthesizer compositionally. Every learner
// threads the call context: argument learners receive it, and the cross
// product / partition-search loops poll the call's Budget so a deadline or
// candidate cap stops exploration while keeping what was already found.

// endLearnerSpan records the example/program counts of one operator-
// learner invocation and ends its span (no-op for nil spans).
func endLearnerSpan(sp *trace.Span, examples, programs int) {
	if sp == nil {
		return
	}
	sp.SetInt("examples", int64(examples))
	sp.SetInt("programs", int64(programs))
	sp.End()
}

// MapOp is a decomposable Map operator (§4.2). Decompose computes, from an
// input state and a desired output subsequence Y, the witness subsequence Z
// of the inner sequence such that mapping F over Z yields Y element-wise.
type MapOp struct {
	// Name is the operator's display name (e.g. "LinesMap").
	Name string
	// Var is the λ-bound variable of F.
	Var string
	// F learns the scalar function body from per-element examples.
	F ScalarLearner
	// S learns the inner sequence expression.
	S SeqLearner
	// Decompose computes the witness sequence Z for (σ, Y); it must return
	// one witness element per element of Y, or an error if none exists.
	Decompose func(st State, y []Value) ([]Value, error)
}

// Learn implements Map.Learn of Fig. 6: decompose every example, learn F
// from the per-element scalar examples and S from the witness sequences,
// and return the cleaned-up cross product.
func (op MapOp) Learn(ctx context.Context, exs []SeqExample) (learned []Program) {
	ctx, sp := trace.Start(ctx, "map:"+op.Name)
	defer func() { endLearnerSpan(sp, len(exs), len(learned)) }()
	var scalarExs []Example
	var seqExs []SeqExample
	for _, ex := range exs {
		z, err := op.Decompose(ex.State, ex.Positive)
		if err != nil || len(z) != len(ex.Positive) {
			return nil
		}
		for i := range z {
			scalarExs = append(scalarExs, Example{
				State:  ex.State.Bind(op.Var, z[i]),
				Output: ex.Positive[i],
			})
		}
		seqExs = append(seqExs, SeqExample{State: ex.State, Positive: z})
	}
	fs := op.F(ctx, scalarExs)
	if len(fs) == 0 {
		return nil
	}
	ss := op.S(ctx, seqExs)
	if len(ss) == 0 {
		return nil
	}
	bud := BudgetFrom(ctx)
	var out []Program
cross:
	for _, s := range ss {
		for _, f := range fs {
			if bud.Exhausted() {
				break cross
			}
			out = append(out, &MapProgram{Name: op.Name, Var: op.Var, F: f, S: s})
		}
	}
	return CleanUp(ctx, out, exs)
}

// FilterBoolOp selects elements of a sequence by a learned predicate.
type FilterBoolOp struct {
	// Var is the λ-bound variable of the predicate.
	Var string
	// B learns boolean programs from examples whose output is true.
	B ScalarLearner
	// S learns the inner sequence expression.
	S SeqLearner
}

// Learn implements FilterBool.Learn of Fig. 6: learn S from the sequence
// examples and B from one true-example per positive element, then combine.
func (op FilterBoolOp) Learn(ctx context.Context, exs []SeqExample) (learned []Program) {
	ctx, sp := trace.Start(ctx, "filter_bool")
	defer func() { endLearnerSpan(sp, len(exs), len(learned)) }()
	ss := op.S(ctx, exs)
	if len(ss) == 0 {
		return nil
	}
	var predExs []Example
	for _, ex := range exs {
		for _, e := range ex.Positive {
			predExs = append(predExs, Example{State: ex.State.Bind(op.Var, e), Output: true})
		}
	}
	bs := op.B(ctx, predExs)
	if len(bs) == 0 {
		return nil
	}
	bud := BudgetFrom(ctx)
	var out []Program
cross:
	for _, s := range ss {
		for _, b := range bs {
			if bud.Exhausted() {
				break cross
			}
			out = append(out, &FilterBoolProgram{Var: op.Var, B: b, S: s})
		}
	}
	return CleanUp(ctx, out, exs)
}

// FilterIntOp selects elements of a sequence by index arithmetic.
type FilterIntOp struct {
	// S learns the inner sequence expression.
	S SeqLearner
}

// Learn implements FilterInt.Learn of Fig. 6: for each learned inner
// sequence program, choose the strictest (init, iter) consistent with the
// examples — init is the minimum offset of the first positive instance and
// iter the GCD of the index distances between contiguous positives.
func (op FilterIntOp) Learn(ctx context.Context, exs []SeqExample) (learned []Program) {
	ctx, sp := trace.Start(ctx, "filter_int")
	defer func() { endLearnerSpan(sp, len(exs), len(learned)) }()
	ss := op.S(ctx, exs)
	bud := BudgetFrom(ctx)
	var out []Program
	for _, s := range ss {
		if bud.ExhaustedNow() {
			break
		}
		init, iter, ok := deriveFilterInt(s, exs)
		if !ok {
			continue
		}
		p := &FilterIntProgram{Init: init, Iter: iter, S: s}
		if !ConsistentSeq(p, exs) {
			// The strictest parameters can misalign across multiple
			// examples; fall back to the loosest consistent filter.
			p = &FilterIntProgram{Init: init, Iter: 1, S: s}
			if !ConsistentSeq(p, exs) {
				continue
			}
		}
		out = append(out, p)
	}
	return CleanUp(ctx, out, exs)
}

func deriveFilterInt(s Program, exs []SeqExample) (init, iter int, ok bool) {
	init = int(^uint(0) >> 1) // maximum int
	iter = 0
	seen := false
	for _, ex := range exs {
		if len(ex.Positive) == 0 {
			continue
		}
		z, okExec := execSeq(s, ex.State)
		if !okExec {
			return 0, 0, false
		}
		first := IndexOf(z, ex.Positive[0])
		if first < 0 {
			return 0, 0, false
		}
		seen = true
		if first < init {
			init = first
		}
		prev := first
		for i := 1; i < len(ex.Positive); i++ {
			idx := IndexOf(z, ex.Positive[i])
			if idx < 0 {
				return 0, 0, false
			}
			t := idx - prev
			if t <= 0 {
				return 0, 0, false
			}
			if iter == 0 {
				iter = t
			} else {
				iter = gcd(iter, t)
			}
			prev = idx
		}
	}
	if !seen {
		init = 0
	}
	if iter == 0 {
		iter = 1
	}
	return init, iter, true
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// PairOp constructs scalars (typically regions) from two learned components.
type PairOp struct {
	// A and B learn the component programs.
	A, B ScalarLearner
	// Split decomposes an example output into its two components.
	Split func(out Value) (a, b Value, err error)
	// Make converts the two component values back into the output value at
	// execution time (see PairProgram.Make).
	Make func(a, b Value) (Value, error)
}

// Learn implements Pair.Learn of Fig. 6: learn both components
// independently and return the cross product.
func (op PairOp) Learn(ctx context.Context, exs []Example) (learned []Program) {
	ctx, sp := trace.Start(ctx, "pair")
	defer func() { endLearnerSpan(sp, len(exs), len(learned)) }()
	var aExs, bExs []Example
	for _, ex := range exs {
		a, b, err := op.Split(ex.Output)
		if err != nil {
			return nil
		}
		aExs = append(aExs, Example{State: ex.State, Output: a})
		bExs = append(bExs, Example{State: ex.State, Output: b})
	}
	as := op.A(ctx, aExs)
	if len(as) == 0 {
		return nil
	}
	bs := op.B(ctx, bExs)
	if len(bs) == 0 {
		return nil
	}
	bud := BudgetFrom(ctx)
	var out []Program
cross:
	for _, a := range as {
		for _, b := range bs {
			if bud.Exhausted() {
				break cross
			}
			out = append(out, &PairProgram{A: a, B: b, Make: op.Make})
		}
	}
	return capList(out)
}

// MergeExhaustiveLimit is the largest number of positive instances for
// which Merge.Learn searches set partitions exhaustively; beyond it a
// greedy left-to-right partition is used.
var MergeExhaustiveLimit = 6

// MergeOp combines several sequence expressions generated by the same
// non-terminal, merging their outputs in document order.
type MergeOp struct {
	// A learns the argument sequence expressions.
	A SeqLearner
	// Less orders values by their location in the document.
	Less func(a, b Value) bool
}

type mergeItem struct {
	ex  int // example index
	val Value
}

// Learn implements Merge.Learn of Fig. 6. It searches for a minimal
// partition of the positive instances into classes such that each class is
// learnable by A, and returns Merge programs built from the per-class
// results. For small example sets the search is exhaustive over set
// partitions in increasing class count (yielding a minimal cover as in the
// paper); larger sets use a greedy scan.
func (op MergeOp) Learn(ctx context.Context, exs []SeqExample) (learned []Program) {
	ctx, sp := trace.Start(ctx, "merge")
	defer func() { endLearnerSpan(sp, len(exs), len(learned)) }()
	// Fast path: a single expression covers everything.
	if ps := op.A(ctx, exs); len(ps) > 0 {
		out := make([]Program, len(ps))
		for i, p := range ps {
			out[i] = &MergeProgram{Args: []Program{p}, Less: op.Less}
		}
		return CleanUp(ctx, out, exs)
	}
	var items []mergeItem
	for j, ex := range exs {
		for _, v := range ex.Positive {
			items = append(items, mergeItem{ex: j, val: v})
		}
	}
	if len(items) == 0 {
		return nil
	}
	bud := BudgetFrom(ctx)
	memo := map[string][]Program{}
	learnClass := func(idxs []int) []Program {
		key := classKey(idxs)
		if ps, ok := memo[key]; ok {
			return ps
		}
		if bud.ExhaustedNow() {
			// Do not memoize the truncation: an unexplored class is not a
			// proven-unlearnable class.
			return nil
		}
		ps := op.A(ctx, op.classExamples(exs, items, idxs))
		memo[key] = ps
		return ps
	}

	var out []Program
	if len(items) <= MergeExhaustiveLimit {
		out = op.learnExhaustive(ctx, exs, items, learnClass)
	} else {
		out = op.learnGreedy(exs, items, learnClass)
	}
	return CleanUp(ctx, out, exs)
}

// classExamples builds the sub-example-set for a class of item indices,
// preserving per-example instance order.
func (op MergeOp) classExamples(exs []SeqExample, items []mergeItem, idxs []int) []SeqExample {
	perExample := map[int][]Value{}
	for _, i := range idxs {
		perExample[items[i].ex] = append(perExample[items[i].ex], items[i].val)
	}
	var out []SeqExample
	for j := range exs {
		if vs, ok := perExample[j]; ok {
			out = append(out, SeqExample{State: exs[j].State, Positive: vs})
		}
	}
	return out
}

func classKey(idxs []int) string {
	b := make([]byte, len(idxs)*2)
	for i, x := range idxs {
		b[i*2] = byte(x >> 8)
		b[i*2+1] = byte(x)
	}
	return string(b)
}

// learnExhaustive enumerates set partitions of the items in increasing
// class count via restricted-growth strings, returning all Merge programs
// from the minimal learnable partitions.
func (op MergeOp) learnExhaustive(ctx context.Context, exs []SeqExample, items []mergeItem, learnClass func([]int) []Program) []Program {
	bud := BudgetFrom(ctx)
	m := len(items)
	for k := 2; k <= m; k++ {
		var out []Program
		rgs := make([]int, m)
		var rec func(i, maxUsed int)
		rec = func(i, maxUsed int) {
			if len(out) >= DefaultCap || bud.Exhausted() {
				return
			}
			if i == m {
				if maxUsed+1 != k {
					return
				}
				out = append(out, op.buildMerges(rgs, k, learnClass)...)
				return
			}
			limit := maxUsed + 1
			if limit > k-1 {
				limit = k - 1
			}
			for c := 0; c <= limit; c++ {
				rgs[i] = c
				nm := maxUsed
				if c > maxUsed {
					nm = c
				}
				rec(i+1, nm)
			}
		}
		rec(0, -1)
		if len(out) > 0 {
			return out
		}
		if bud.ExhaustedNow() {
			return nil
		}
	}
	return nil
}

// buildMerges checks each class of the partition encoded by the
// restricted-growth string and, if all classes are learnable, returns the
// cross product of their program lists as Merge programs.
func (op MergeOp) buildMerges(rgs []int, k int, learnClass func([]int) []Program) []Program {
	classes := make([][]int, k)
	for i, c := range rgs {
		classes[c] = append(classes[c], i)
	}
	perClass := make([][]Program, k)
	for c, idxs := range classes {
		ps := learnClass(idxs)
		if len(ps) == 0 {
			return nil
		}
		perClass[c] = ps
	}
	// Cross product, capped: pick the top-ranked combination plus single-
	// coordinate variations to keep the result manageable.
	var out []Program
	base := make([]Program, k)
	for c := range perClass {
		base[c] = perClass[c][0]
	}
	out = append(out, &MergeProgram{Args: append([]Program(nil), base...), Less: op.Less})
	for c := range perClass {
		for _, alt := range perClass[c][1:] {
			args := append([]Program(nil), base...)
			args[c] = alt
			out = append(out, &MergeProgram{Args: args, Less: op.Less})
			if len(out) >= 16 {
				return out
			}
		}
	}
	return out
}

// learnGreedy partitions the items left to right: it grows the current
// class while it stays learnable and starts a new class otherwise.
func (op MergeOp) learnGreedy(exs []SeqExample, items []mergeItem, learnClass func([]int) []Program) []Program {
	var classes [][]int
	var cur []int
	var curPrograms []Program
	for i := range items {
		trial := append(append([]int(nil), cur...), i)
		ps := learnClass(trial)
		if len(ps) > 0 {
			cur = trial
			curPrograms = ps
			continue
		}
		if len(cur) == 0 {
			return nil
		}
		classes = append(classes, cur)
		cur = []int{i}
		curPrograms = learnClass(cur)
		if len(curPrograms) == 0 {
			return nil
		}
	}
	if len(cur) > 0 {
		classes = append(classes, cur)
	}
	args := make([]Program, len(classes))
	for c, idxs := range classes {
		ps := learnClass(idxs)
		if len(ps) == 0 {
			return nil
		}
		args[c] = ps[0]
	}
	return []Program{&MergeProgram{Args: args, Less: op.Less}}
}

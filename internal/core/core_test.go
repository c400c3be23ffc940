package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// ---- toy DSL over integer sequences, used to exercise the operators ----

// inputSeq returns the input sequence bound to R0.
var inputSeq = Func{Name: "Input", F: func(st State) (Value, error) {
	return st.Input(), nil
}}

// learnInput is the trivial learner for the fixed expression Input: it is
// consistent iff every positive instance occurs, in order, in the input.
func learnInput(_ context.Context, exs []SeqExample) []Program {
	for _, ex := range exs {
		in, err := AsSeq(ex.State.Input())
		if err != nil || !IsSubsequence(ex.Positive, in) {
			return nil
		}
	}
	return []Program{inputSeq}
}

// constProgram returns a fixed integer.
func constProgram(k int) Program {
	return Func{Name: fmt.Sprintf("Const(%d)", k), F: func(State) (Value, error) { return k, nil }}
}

// addProgram adds k to the λ-bound variable x.
func addProgram(k int) Program {
	return Func{Name: fmt.Sprintf("Add(%d)", k), F: func(st State) (Value, error) {
		x, _ := st.Lookup("x")
		return x.(int) + k, nil
	}}
}

// learnAdd learns Add(k) from scalar examples binding x.
func learnAdd(_ context.Context, exs []Example) []Program {
	if len(exs) == 0 {
		return []Program{addProgram(0)}
	}
	x, _ := exs[0].State.Lookup("x")
	k := exs[0].Output.(int) - x.(int)
	for _, ex := range exs[1:] {
		x, _ := ex.State.Lookup("x")
		if ex.Output.(int)-x.(int) != k {
			return nil
		}
	}
	return []Program{addProgram(k)}
}

// isMultipleOf is a predicate program over the λ-bound variable x.
func isMultipleOf(k int) Program {
	return Func{Name: fmt.Sprintf("MultipleOf(%d)", k), F: func(st State) (Value, error) {
		x, _ := st.Lookup("x")
		return x.(int)%k == 0, nil
	}}
}

// learnDivisor learns MultipleOf(k) predicates from positive examples,
// most specific (largest k) first.
func learnDivisor(_ context.Context, exs []Example) []Program {
	g := 0
	for _, ex := range exs {
		x, _ := ex.State.Lookup("x")
		g = gcd(g, x.(int))
	}
	if g < 0 {
		g = -g
	}
	var out []Program
	for k := g; k >= 1; k-- {
		if k == 0 || (g != 0 && g%k != 0) {
			continue
		}
		out = append(out, isMultipleOf(k))
	}
	if g == 0 { // all example values were 0: any divisor works
		out = []Program{isMultipleOf(1)}
	}
	return out
}

func seqOf(xs ...int) []Value {
	out := make([]Value, len(xs))
	for i, x := range xs {
		out[i] = x
	}
	return out
}

func mustExecSeq(t *testing.T, p Program, st State) []Value {
	t.Helper()
	v, err := p.Exec(st)
	if err != nil {
		t.Fatalf("Exec(%s) failed: %v", p, err)
	}
	seq, err := AsSeq(v)
	if err != nil {
		t.Fatalf("Exec(%s): %v", p, err)
	}
	return seq
}

// ---- State ----

func TestStateBindLookup(t *testing.T) {
	st := NewState("doc")
	if got := st.Input(); got != "doc" {
		t.Fatalf("Input() = %v, want doc", got)
	}
	st2 := st.Bind("x", 7)
	if v, ok := st2.Lookup("x"); !ok || v != 7 {
		t.Fatalf("Lookup(x) = %v, %v", v, ok)
	}
	if _, ok := st.Lookup("x"); ok {
		t.Fatal("binding leaked into the original state")
	}
	st3 := st2.Bind("x", 9)
	if v, _ := st3.Lookup("x"); v != 9 {
		t.Fatalf("shadowed Lookup(x) = %v, want 9", v)
	}
	if v, _ := st2.Lookup("x"); v != 7 {
		t.Fatalf("original binding changed: %v", v)
	}
}

func TestStateInputPanicsWithoutBinding(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Input() on empty state did not panic")
		}
	}()
	State{}.Input()
}

// ---- value helpers ----

func TestEq(t *testing.T) {
	if !Eq(1, 1) || Eq(1, 2) {
		t.Fatal("scalar Eq broken")
	}
	if !Eq(seqOf(1, 2), seqOf(1, 2)) {
		t.Fatal("sequence Eq broken")
	}
	if Eq(seqOf(1, 2), seqOf(1, 2, 3)) || Eq(seqOf(1, 2), seqOf(2, 1)) {
		t.Fatal("sequence Eq accepted unequal sequences")
	}
	if Eq(seqOf(1), 1) {
		t.Fatal("sequence vs scalar should not be equal")
	}
}

type eqWrapper struct{ v int }

func (w eqWrapper) EqValue(other Value) bool {
	o, ok := other.(eqWrapper)
	return ok && o.v%10 == w.v%10
}

func TestEqUsesEqualer(t *testing.T) {
	if !Eq(eqWrapper{3}, eqWrapper{13}) {
		t.Fatal("Equaler not consulted")
	}
	if Eq(eqWrapper{3}, eqWrapper{4}) {
		t.Fatal("Equaler result ignored")
	}
}

func TestIsSubsequence(t *testing.T) {
	tests := []struct {
		sub, seq []Value
		want     bool
	}{
		{seqOf(), seqOf(1, 2), true},
		{seqOf(1), seqOf(1, 2), true},
		{seqOf(2), seqOf(1, 2), true},
		{seqOf(1, 2), seqOf(1, 3, 2), true},
		{seqOf(2, 1), seqOf(1, 3, 2), false},
		{seqOf(1, 1), seqOf(1), false},
		{seqOf(), seqOf(), true},
		{seqOf(1), seqOf(), false},
	}
	for _, tt := range tests {
		if got := IsSubsequence(tt.sub, tt.seq); got != tt.want {
			t.Errorf("IsSubsequence(%v, %v) = %v, want %v", tt.sub, tt.seq, got, tt.want)
		}
	}
}

func TestIsSubsequenceProperties(t *testing.T) {
	toVals := func(xs []int8) []Value {
		out := make([]Value, len(xs))
		for i, x := range xs {
			out[i] = int(x)
		}
		return out
	}
	// Every even-index subsampling of a sequence is a subsequence of it.
	f := func(xs []int8) bool {
		seq := toVals(xs)
		var sub []Value
		for i := 0; i < len(seq); i += 2 {
			sub = append(sub, seq[i])
		}
		return IsSubsequence(sub, seq)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// A strictly longer sequence is never a subsequence of a shorter one.
	g := func(xs []int8) bool {
		seq := toVals(xs)
		longer := append(append([]Value{}, seq...), 99)
		return !IsSubsequence(longer, seq)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestIndexOf(t *testing.T) {
	s := seqOf(4, 5, 6)
	if got := IndexOf(s, 5); got != 1 {
		t.Fatalf("IndexOf = %d, want 1", got)
	}
	if got := IndexOf(s, 7); got != -1 {
		t.Fatalf("IndexOf missing = %d, want -1", got)
	}
	if !ContainsValue(s, 6) || ContainsValue(s, 0) {
		t.Fatal("ContainsValue broken")
	}
}

// ---- program execution semantics ----

func TestMapProgramExec(t *testing.T) {
	p := &MapProgram{Name: "Map", Var: "x", F: addProgram(10), S: inputSeq}
	st := NewState(seqOf(1, 2, 3))
	got := mustExecSeq(t, p, st)
	if !Eq(got, seqOf(11, 12, 13)) {
		t.Fatalf("Map output = %v", got)
	}
	if !strings.Contains(p.String(), "Map(λx:") {
		t.Fatalf("String() = %q", p.String())
	}
}

func TestMapProgramPropagatesElementError(t *testing.T) {
	failing := Func{Name: "Fail", F: func(st State) (Value, error) {
		x, _ := st.Lookup("x")
		if x.(int) == 2 {
			return nil, ErrNoMatch
		}
		return x, nil
	}}
	p := &MapProgram{Name: "Map", Var: "x", F: failing, S: inputSeq}
	if _, err := p.Exec(NewState(seqOf(1, 2, 3))); err == nil {
		t.Fatal("strict Map should fail when F fails on an element")
	}
}

func TestFilterBoolProgramExec(t *testing.T) {
	p := &FilterBoolProgram{Var: "x", B: isMultipleOf(2), S: inputSeq}
	got := mustExecSeq(t, p, NewState(seqOf(1, 2, 3, 4, 6)))
	if !Eq(got, seqOf(2, 4, 6)) {
		t.Fatalf("FilterBool output = %v", got)
	}
}

func TestFilterBoolProgramRejectsNonBool(t *testing.T) {
	p := &FilterBoolProgram{Var: "x", B: constProgram(1), S: inputSeq}
	if _, err := p.Exec(NewState(seqOf(1))); err == nil {
		t.Fatal("non-bool predicate result should error")
	}
}

// sweepBody is a SeqBody that counts its ExecSeq calls and evaluates its
// per-element function over the whole sequence.
type sweepBody struct {
	Func
	calls *int
}

func (b sweepBody) ExecSeq(st State, v string, xs []Value) ([]Value, error) {
	*b.calls++
	return ExecEach(b.Func, st, v, xs)
}

// TestSeqBodyErrorsInElementOrder checks that Map and FilterBool take a
// body's ExecSeq when it has one, once per sequence, and report what the
// per-element loop reports: the first element's failure, whether it is
// the body's error or, in FilterBool, a value that is not a bool.
func TestSeqBodyErrorsInElementOrder(t *testing.T) {
	// byElement returns true, a string or an error per input element.
	byElement := Func{Name: "ByElement", F: func(st State) (Value, error) {
		x, _ := st.Lookup("x")
		switch x.(int) {
		case 0:
			return nil, ErrNoMatch
		case 1:
			return "one", nil
		}
		return x.(int)%2 == 0, nil
	}}
	calls := 0
	bodies := []Program{byElement, sweepBody{byElement, &calls}}
	for _, in := range [][]int{{2, 3, 4}, {2, 1, 0}, {2, 0, 1}, {0, 1}, {}} {
		var results []string
		for _, b := range bodies {
			for _, p := range []Program{
				&FilterBoolProgram{Var: "x", B: b, S: inputSeq},
				&MapProgram{Name: "Map", Var: "x", F: b, S: inputSeq},
			} {
				v, err := p.Exec(NewState(seqOf(in...)))
				results = append(results, fmt.Sprint(v, err))
			}
		}
		if results[0] != results[2] || results[1] != results[3] {
			t.Fatalf("over %v: per element %q, by sequence %q", in, results[:2], results[2:])
		}
	}
	if calls != 10 {
		t.Fatalf("ExecSeq ran %d times, want once per program run (10)", calls)
	}
	v, err := (&FilterBoolProgram{Var: "x", B: byElement, S: inputSeq}).Exec(NewState(seqOf(2, 1, 0)))
	if err == nil || !strings.Contains(err.Error(), "returned string, want bool") {
		t.Fatalf("FilterBool over [2 1 0] = %v, %v; want the non-bool of element 1", v, err)
	}
	if _, err := (&FilterBoolProgram{Var: "x", B: byElement, S: inputSeq}).Exec(NewState(seqOf(2, 0, 1))); err != ErrNoMatch {
		t.Fatalf("FilterBool over [2 0 1] error = %v, want the error of element 1", err)
	}
}

func TestFilterIntProgramExec(t *testing.T) {
	p := &FilterIntProgram{Init: 1, Iter: 2, S: inputSeq}
	got := mustExecSeq(t, p, NewState(seqOf(10, 11, 12, 13, 14)))
	if !Eq(got, seqOf(11, 13)) {
		t.Fatalf("FilterInt output = %v", got)
	}
	empty := mustExecSeq(t, &FilterIntProgram{Init: 9, Iter: 1, S: inputSeq}, NewState(seqOf(1)))
	if len(empty) != 0 {
		t.Fatalf("out-of-range init should produce empty, got %v", empty)
	}
}

func TestFilterIntProgramRejectsBadIter(t *testing.T) {
	p := &FilterIntProgram{Init: 0, Iter: 0, S: inputSeq}
	if _, err := p.Exec(NewState(seqOf(1))); err == nil {
		t.Fatal("iter=0 should error")
	}
}

func TestMergeProgramOrdersAndDedupes(t *testing.T) {
	a := Func{Name: "A", F: func(State) (Value, error) { return seqOf(5, 1), nil }}
	b := Func{Name: "B", F: func(State) (Value, error) { return seqOf(3, 1), nil }}
	p := &MergeProgram{Args: []Program{a, b}, Less: func(x, y Value) bool { return x.(int) < y.(int) }}
	got := mustExecSeq(t, p, NewState(nil))
	if !Eq(got, seqOf(1, 3, 5)) {
		t.Fatalf("Merge output = %v", got)
	}
}

// referenceMerge is MergeProgram.Exec without its one-argument shortcut:
// it copies the concatenated sequences, sorts the copy stably by less and
// drops adjacent Eq duplicates.
func referenceMerge(seqs [][]Value, less func(a, b Value) bool) []Value {
	var all []Value
	for _, seq := range seqs {
		all = append(all, seq...)
	}
	if less != nil {
		sort.SliceStable(all, func(i, j int) bool { return less(all[i], all[j]) })
	}
	out := []Value{}
	for _, v := range all {
		if len(out) == 0 || !Eq(out[len(out)-1], v) {
			out = append(out, v)
		}
	}
	return out
}

// TestMergeProgramMatchesReference runs Merges of one and of two argument
// sequences, random, sorted, deduplicated or both, of ints and of spans in
// region order, with and without an order, against referenceMerge. A
// one-argument Merge must return its argument's sequence itself exactly
// when it is non-empty, sorted and free of adjacent duplicates.
func TestMergeProgramMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	intLess := func(a, b Value) bool { return a.(int) < b.(int) }
	spanLess := func(a, b Value) bool {
		x, y := a.(fuzzSpan), b.(fuzzSpan)
		return before(span{x.start, x.end}, span{y.start, y.end})
	}
	random := func(spans bool) []Value {
		seq := make([]Value, rng.Intn(6))
		for i := range seq {
			if spans {
				s := rng.Intn(4)
				seq[i] = fuzzSpan{space: "a", start: s, end: s + rng.Intn(3)}
			} else {
				seq[i] = rng.Intn(5)
			}
		}
		return seq
	}
	shortcuts := 0
	for i := 0; i < 20000; i++ {
		spans := rng.Intn(2) == 0
		less := intLess
		if spans {
			less = spanLess
		}
		if rng.Intn(4) == 0 {
			less = nil
		}
		seqs := [][]Value{random(spans)}
		if rng.Intn(3) == 0 {
			seqs = append(seqs, random(spans))
		} else if rng.Intn(2) == 0 {
			seqs[0] = referenceMerge(seqs, less)
		}
		args := make([]Program, len(seqs))
		for j, seq := range seqs {
			args[j] = Func{Name: "seq", F: func(State) (Value, error) { return seq, nil }}
		}
		want := referenceMerge(seqs, less)
		got := mustExecSeq(t, &MergeProgram{Args: args, Less: less}, NewState(nil))
		if !Eq(got, want) || got == nil {
			t.Fatalf("Merge of %v = %v, reference %v", seqs, got, want)
		}
		same := len(got) > 0 && len(seqs[0]) > 0 && &got[0] == &seqs[0][0]
		if want := len(seqs) == 1 && len(seqs[0]) > 0 && Eq(seqs[0], referenceMerge(seqs, less)); same != want {
			t.Fatalf("Merge of %v returned its argument: %v, want %v", seqs, same, want)
		}
		if same {
			shortcuts++
		}
	}
	if shortcuts == 0 {
		t.Fatal("no Merge returned its argument")
	}
}

func TestMergeProgramStringSingleArgUnwrapped(t *testing.T) {
	p := &MergeProgram{Args: []Program{inputSeq}}
	if p.String() != "Input" {
		t.Fatalf("String() = %q", p.String())
	}
	p2 := &MergeProgram{Args: []Program{inputSeq, inputSeq}}
	if !strings.HasPrefix(p2.String(), "Merge(") {
		t.Fatalf("String() = %q", p2.String())
	}
}

func TestPairProgramExec(t *testing.T) {
	p := &PairProgram{A: constProgram(1), B: constProgram(2)}
	v, err := p.Exec(NewState(nil))
	if err != nil {
		t.Fatal(err)
	}
	pv := v.(PairValue)
	if pv.First != 1 || pv.Second != 2 {
		t.Fatalf("Pair output = %v", pv)
	}
	p2 := &PairProgram{A: constProgram(1), B: constProgram(2), Make: func(a, b Value) (Value, error) {
		return a.(int)*10 + b.(int), nil
	}}
	v2, err := p2.Exec(NewState(nil))
	if err != nil || v2 != 12 {
		t.Fatalf("Pair with Make = %v, %v", v2, err)
	}
}

// ---- operator learners ----

func TestMapLearn(t *testing.T) {
	op := MapOp{
		Name: "Map", Var: "x",
		F: learnAdd,
		S: learnInput,
		Decompose: func(st State, y []Value) ([]Value, error) {
			// The witness of Add(k) output y is y-k; but k is unknown during
			// decomposition. For this toy DSL the input sequence is known,
			// so witness each y element by matching positions: assume the
			// mapped values preserve order with a constant offset derived
			// from the first element of the input.
			in, _ := AsSeq(st.Input())
			if len(y) == 0 {
				return nil, nil
			}
			// find offset such that every y[i] - offset is in input, in order
			for _, cand := range in {
				off := y[0].(int) - cand.(int)
				z := make([]Value, len(y))
				for i := range y {
					z[i] = y[i].(int) - off
				}
				if IsSubsequence(z, in) {
					return z, nil
				}
			}
			return nil, ErrNoMatch
		},
	}
	exs := []SeqExample{{State: NewState(seqOf(1, 2, 3)), Positive: seqOf(11, 13)}}
	ps := op.Learn(context.Background(), exs)
	if len(ps) == 0 {
		t.Fatal("Map.Learn found nothing")
	}
	got := mustExecSeq(t, ps[0], NewState(seqOf(4, 5)))
	if !Eq(got, seqOf(14, 15)) {
		t.Fatalf("learned Map on fresh input = %v", got)
	}
}

func TestMapLearnFailsWhenNoWitness(t *testing.T) {
	op := MapOp{
		Name: "Map", Var: "x", F: learnAdd, S: learnInput,
		Decompose: func(st State, y []Value) ([]Value, error) { return nil, ErrNoMatch },
	}
	exs := []SeqExample{{State: NewState(seqOf(1)), Positive: seqOf(2)}}
	if ps := op.Learn(context.Background(), exs); len(ps) != 0 {
		t.Fatalf("expected no programs, got %d", len(ps))
	}
}

func TestFilterBoolLearn(t *testing.T) {
	op := FilterBoolOp{Var: "x", B: learnDivisor, S: learnInput}
	exs := []SeqExample{{State: NewState(seqOf(1, 2, 3, 4, 5, 6)), Positive: seqOf(2, 4)}}
	ps := op.Learn(context.Background(), exs)
	if len(ps) == 0 {
		t.Fatal("FilterBool.Learn found nothing")
	}
	// The top-ranked program after CleanUp must keep consistency and, by
	// the subsumption rule, extract as few extra elements as possible:
	// MultipleOf(2) selects {2,4,6}.
	got := mustExecSeq(t, ps[0], NewState(seqOf(1, 2, 3, 4, 5, 6)))
	if !IsSubsequence(seqOf(2, 4), got) {
		t.Fatalf("inconsistent program won ranking: %v", got)
	}
	for _, v := range got {
		if v.(int)%2 != 0 {
			t.Fatalf("top program selected non-multiple: %v", got)
		}
	}
}

func TestFilterIntLearnSingleton(t *testing.T) {
	op := FilterIntOp{S: learnInput}
	exs := []SeqExample{{State: NewState(seqOf(7, 8, 9)), Positive: seqOf(8)}}
	ps := op.Learn(context.Background(), exs)
	if len(ps) == 0 {
		t.Fatal("no programs")
	}
	fi := ps[0].(*FilterIntProgram)
	if fi.Init != 1 || fi.Iter != 1 {
		t.Fatalf("init/iter = %d/%d, want 1/1", fi.Init, fi.Iter)
	}
}

func TestFilterIntLearnGCD(t *testing.T) {
	op := FilterIntOp{S: learnInput}
	// positives at indices 1, 3, 7 → gaps 2 and 4 → iter gcd = 2, init 1
	exs := []SeqExample{{State: NewState(seqOf(0, 10, 20, 30, 40, 50, 60, 70)), Positive: seqOf(10, 30, 70)}}
	ps := op.Learn(context.Background(), exs)
	if len(ps) == 0 {
		t.Fatal("no programs")
	}
	fi := ps[0].(*FilterIntProgram)
	if fi.Init != 1 || fi.Iter != 2 {
		t.Fatalf("init/iter = %d/%d, want 1/2", fi.Init, fi.Iter)
	}
}

func TestFilterIntLearnMisalignedExamplesFallsBack(t *testing.T) {
	op := FilterIntOp{S: learnInput}
	// Example 1: positives at indices 1 and 3 (iter 2, init 1).
	// Example 2: positive at index 2 — misaligned with init=1, iter=2.
	exs := []SeqExample{
		{State: NewState(seqOf(0, 10, 20, 30)), Positive: seqOf(10, 30)},
		{State: NewState(seqOf(0, 10, 20, 30)), Positive: seqOf(20)},
	}
	ps := op.Learn(context.Background(), exs)
	if len(ps) == 0 {
		t.Fatal("no programs")
	}
	for _, p := range ps {
		if !ConsistentSeq(p, exs) {
			t.Fatalf("inconsistent program returned: %s", p)
		}
	}
}

func TestFilterIntLearnRejectsMissingPositive(t *testing.T) {
	op := FilterIntOp{S: learnInput}
	exs := []SeqExample{{State: NewState(seqOf(1, 2)), Positive: seqOf(99)}}
	if ps := op.Learn(context.Background(), exs); len(ps) != 0 {
		t.Fatalf("expected failure, got %d programs", len(ps))
	}
}

func TestPairLearn(t *testing.T) {
	op := PairOp{
		A: func(_ context.Context, exs []Example) []Program {
			k := exs[0].Output.(int)
			for _, ex := range exs {
				if ex.Output.(int) != k {
					return nil
				}
			}
			return []Program{constProgram(k)}
		},
		B: func(_ context.Context, exs []Example) []Program {
			k := exs[0].Output.(int)
			for _, ex := range exs {
				if ex.Output.(int) != k {
					return nil
				}
			}
			return []Program{constProgram(k)}
		},
		Split: func(out Value) (Value, Value, error) {
			pv := out.(PairValue)
			return pv.First, pv.Second, nil
		},
	}
	exs := []Example{{State: NewState(nil), Output: PairValue{3, 4}}}
	ps := op.Learn(context.Background(), exs)
	if len(ps) != 1 {
		t.Fatalf("got %d programs", len(ps))
	}
	v, err := ps[0].Exec(NewState(nil))
	if err != nil || !Eq(v, PairValue{3, 4}) {
		t.Fatalf("Exec = %v, %v", v, err)
	}
}

func TestPairLearnFailsWhenComponentFails(t *testing.T) {
	op := PairOp{
		A: func(context.Context, []Example) []Program { return nil },
		B: func(context.Context, []Example) []Program { return []Program{constProgram(0)} },
		Split: func(out Value) (Value, Value, error) {
			pv := out.(PairValue)
			return pv.First, pv.Second, nil
		},
	}
	if ps := op.Learn(context.Background(), []Example{{State: NewState(nil), Output: PairValue{1, 2}}}); len(ps) != 0 {
		t.Fatal("expected no programs when a component learner fails")
	}
}

// evenOrOddLearner learns "all even elements of input" or "all odd elements
// of input" — a deliberately limited learner so Merge must partition.
func evenOrOddLearner(_ context.Context, exs []SeqExample) []Program {
	try := func(parity int, name string) Program {
		p := Func{Name: name, F: func(st State) (Value, error) {
			in, err := AsSeq(st.Input())
			if err != nil {
				return nil, err
			}
			out := []Value{}
			for _, v := range in {
				if v.(int)%2 == parity {
					out = append(out, v)
				}
			}
			return out, nil
		}}
		for _, ex := range exs {
			out, ok := execSeq(p, ex.State)
			if !ok || !IsSubsequence(ex.Positive, out) {
				return nil
			}
		}
		return p
	}
	var out []Program
	if p := try(0, "Evens"); p != nil {
		out = append(out, p)
	}
	if p := try(1, "Odds"); p != nil {
		out = append(out, p)
	}
	return out
}

func TestMergeLearnSingleClass(t *testing.T) {
	op := MergeOp{A: evenOrOddLearner, Less: func(a, b Value) bool { return a.(int) < b.(int) }}
	exs := []SeqExample{{State: NewState(seqOf(1, 2, 3, 4)), Positive: seqOf(2, 4)}}
	ps := op.Learn(context.Background(), exs)
	if len(ps) == 0 {
		t.Fatal("no programs")
	}
	got := mustExecSeq(t, ps[0], NewState(seqOf(1, 2, 3, 4)))
	if !Eq(got, seqOf(2, 4)) {
		t.Fatalf("single-class merge output = %v", got)
	}
}

func TestMergeLearnPartitions(t *testing.T) {
	op := MergeOp{A: evenOrOddLearner, Less: func(a, b Value) bool { return a.(int) < b.(int) }}
	// {2, 3} requires merging the evens expression with the odds expression.
	exs := []SeqExample{{State: NewState(seqOf(1, 2, 3, 4)), Positive: seqOf(2, 3)}}
	ps := op.Learn(context.Background(), exs)
	if len(ps) == 0 {
		t.Fatal("Merge.Learn failed to partition")
	}
	got := mustExecSeq(t, ps[0], NewState(seqOf(1, 2, 3, 4)))
	if !Eq(got, seqOf(1, 2, 3, 4)) {
		t.Fatalf("merged output = %v, want all elements", got)
	}
}

func TestMergeLearnGreedyPath(t *testing.T) {
	old := MergeExhaustiveLimit
	MergeExhaustiveLimit = 0 // force greedy
	defer func() { MergeExhaustiveLimit = old }()
	op := MergeOp{A: evenOrOddLearner, Less: func(a, b Value) bool { return a.(int) < b.(int) }}
	exs := []SeqExample{{State: NewState(seqOf(1, 2, 3, 4, 5, 6)), Positive: seqOf(2, 3, 4)}}
	ps := op.Learn(context.Background(), exs)
	if len(ps) == 0 {
		t.Fatal("greedy Merge failed")
	}
	for _, p := range ps {
		if !ConsistentSeq(p, exs) {
			t.Fatalf("inconsistent greedy merge %s", p)
		}
	}
}

func TestMergeLearnImpossible(t *testing.T) {
	op := MergeOp{A: evenOrOddLearner}
	// 99 is not in the input at all: no partition can help.
	exs := []SeqExample{{State: NewState(seqOf(1, 2)), Positive: seqOf(99)}}
	if ps := op.Learn(context.Background(), exs); len(ps) != 0 {
		t.Fatalf("expected failure, got %d programs", len(ps))
	}
}

// ---- CleanUp ----

func constSeqProgram(name string, xs ...int) Program {
	return Func{Name: name, F: func(State) (Value, error) { return seqOf(xs...), nil }}
}

func TestCleanUpDropsInconsistent(t *testing.T) {
	exs := []SeqExample{{State: NewState(nil), Positive: seqOf(1)}}
	ps := CleanUp(context.Background(), []Program{constSeqProgram("bad", 2, 3), constSeqProgram("good", 1, 2)}, exs)
	if len(ps) != 1 || ps[0].String() != "good" {
		t.Fatalf("CleanUp = %v", ps)
	}
}

func TestCleanUpPrefersSubsumingPrograms(t *testing.T) {
	exs := []SeqExample{{State: NewState(nil), Positive: seqOf(1)}}
	tight := constSeqProgram("tight", 1)
	loose := constSeqProgram("loose", 1, 2, 3)
	ps := CleanUp(context.Background(), []Program{loose, tight}, exs)
	if len(ps) != 1 || ps[0].String() != "tight" {
		t.Fatalf("CleanUp kept %v, want only tight", ps)
	}
}

func TestCleanUpKeepsFirstOfEquals(t *testing.T) {
	exs := []SeqExample{{State: NewState(nil), Positive: seqOf(1)}}
	a := constSeqProgram("a", 1, 2)
	b := constSeqProgram("b", 1, 2)
	ps := CleanUp(context.Background(), []Program{a, b}, exs)
	if len(ps) != 1 || ps[0].String() != "a" {
		t.Fatalf("CleanUp = %v, want only a", ps)
	}
}

func TestCleanUpKeepsIncomparable(t *testing.T) {
	exs := []SeqExample{{State: NewState(nil), Positive: seqOf(1)}}
	a := constSeqProgram("a", 1, 2)
	b := constSeqProgram("b", 1, 3)
	ps := CleanUp(context.Background(), []Program{a, b}, exs)
	if len(ps) != 2 {
		t.Fatalf("CleanUp = %v, want both", ps)
	}
}

func TestCleanUpDisabled(t *testing.T) {
	DisableCleanUp = true
	defer func() { DisableCleanUp = false }()
	exs := []SeqExample{{State: NewState(nil), Positive: seqOf(1)}}
	ps := CleanUp(context.Background(), []Program{constSeqProgram("loose", 1, 2), constSeqProgram("tight", 1)}, exs)
	if len(ps) != 2 {
		t.Fatalf("ablation should keep both, got %v", ps)
	}
}

// ---- top-level synthesis APIs ----

func TestSynthesizeSeqRegionProgFiltersNegatives(t *testing.T) {
	n1 := func(_ context.Context, exs []SeqExample) []Program {
		return []Program{constSeqProgram("loose", 1, 2, 3), constSeqProgram("tight", 1, 3)}
	}
	specs := []SeqSpec{{State: NewState(nil), Positive: seqOf(1, 3), Negative: seqOf(2)}}
	ps := SynthesizeSeqRegionProg(context.Background(), n1, specs, nil)
	if len(ps) != 1 || ps[0].String() != "tight" {
		t.Fatalf("SynthesizeSeqRegionProg = %v", ps)
	}
}

func TestSynthesizeSeqRegionProgCustomConflict(t *testing.T) {
	n1 := func(_ context.Context, exs []SeqExample) []Program {
		return []Program{constSeqProgram("p", 1, 10)}
	}
	// conflict if |out - neg| < 5
	conflicts := func(out, neg Value) bool {
		d := out.(int) - neg.(int)
		if d < 0 {
			d = -d
		}
		return d < 5
	}
	specs := []SeqSpec{{State: NewState(nil), Positive: seqOf(1), Negative: seqOf(12)}}
	if ps := SynthesizeSeqRegionProg(context.Background(), n1, specs, conflicts); len(ps) != 0 {
		t.Fatalf("expected conflict rejection, got %v", ps)
	}
}

func TestSynthesizeSeqRegionProgDropsInconsistent(t *testing.T) {
	n1 := func(_ context.Context, exs []SeqExample) []Program {
		return []Program{constSeqProgram("wrong", 9)}
	}
	specs := []SeqSpec{{State: NewState(nil), Positive: seqOf(1)}}
	if ps := SynthesizeSeqRegionProg(context.Background(), n1, specs, nil); len(ps) != 0 {
		t.Fatalf("inconsistent program not dropped: %v", ps)
	}
}

func TestSynthesizeRegionProg(t *testing.T) {
	n2 := func(_ context.Context, exs []Example) []Program {
		return []Program{constProgram(5), constProgram(6)}
	}
	ps := SynthesizeRegionProg(context.Background(), n2, []Example{{State: NewState(nil), Output: 5}})
	if len(ps) != 1 || ps[0].String() != "Const(5)" {
		t.Fatalf("SynthesizeRegionProg = %v", ps)
	}
}

// ---- learner soundness property (Theorem 1, on the toy DSL) ----

func TestSoundnessProperty(t *testing.T) {
	f := func(raw []uint8, pickEven bool) bool {
		if len(raw) == 0 {
			return true
		}
		in := make([]Value, len(raw))
		for i, x := range raw {
			in[i] = int(x)
		}
		var pos []Value
		for _, v := range in {
			if (v.(int)%2 == 0) == pickEven {
				pos = append(pos, v)
				if len(pos) == 2 {
					break
				}
			}
		}
		if len(pos) == 0 {
			return true
		}
		op := MergeOp{A: evenOrOddLearner, Less: func(a, b Value) bool { return a.(int) < b.(int) }}
		exs := []SeqExample{{State: NewState(in), Positive: pos}}
		for _, p := range op.Learn(context.Background(), exs) {
			if !ConsistentSeq(p, exs) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestUnionLearners(t *testing.T) {
	a := func(_ context.Context, exs []SeqExample) []Program { return []Program{constSeqProgram("a", 1)} }
	b := func(_ context.Context, exs []SeqExample) []Program { return []Program{constSeqProgram("b", 2)} }
	ps := UnionLearners(a, b)(context.Background(), nil)
	if len(ps) != 2 || ps[0].String() != "a" || ps[1].String() != "b" {
		t.Fatalf("UnionLearners = %v", ps)
	}
}

func TestUnionScalarLearners(t *testing.T) {
	a := func(_ context.Context, exs []Example) []Program { return []Program{constProgram(1)} }
	b := func(_ context.Context, exs []Example) []Program { return nil }
	ps := UnionScalarLearners(a, b)(context.Background(), nil)
	if len(ps) != 1 {
		t.Fatalf("UnionScalarLearners = %v", ps)
	}
}

func TestGCD(t *testing.T) {
	tests := []struct{ a, b, want int }{
		{4, 6, 2}, {6, 4, 2}, {0, 5, 5}, {5, 0, 5}, {7, 13, 1}, {12, 12, 12},
	}
	for _, tt := range tests {
		if got := gcd(tt.a, tt.b); got != tt.want {
			t.Errorf("gcd(%d,%d) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestPreferNonOverlapping(t *testing.T) {
	overlapping := constSeqProgram("overlapping", 1, 1) // duplicates treated as equal, so craft distinct overlap below
	clean := constSeqProgram("clean", 1, 3)
	// overlap predicate: ints overlap when |a-b| < 2 (and not equal)
	overlaps := func(a, b Value) bool {
		d := a.(int) - b.(int)
		if d < 0 {
			d = -d
		}
		return d < 2
	}
	messy := constSeqProgram("messy", 1, 2) // 1 and 2 overlap
	inner := func(_ context.Context, exs []SeqExample) []Program {
		return []Program{messy, clean, overlapping}
	}
	exs := []SeqExample{{State: NewState(nil), Positive: seqOf(1)}}
	got := PreferNonOverlapping(inner, overlaps)(context.Background(), exs)
	if len(got) != 3 {
		t.Fatalf("got %d programs", len(got))
	}
	if got[0].String() != "clean" {
		t.Fatalf("non-overlapping program should rank first, got %s", got[0])
	}
	if got[1].String() != "overlapping" {
		// "overlapping" outputs [1,1] which dedupes to equal values → it is
		// NOT treated as overlapping (distinctness required).
		t.Fatalf("equal-output program should stay in the good group, got %s", got[1])
	}
	if got[2].String() != "messy" {
		t.Fatalf("overlapping program should sink, got %s", got[2])
	}
	// Single-element lists pass through untouched.
	single := func(_ context.Context, exs []SeqExample) []Program { return []Program{messy} }
	if out := PreferNonOverlapping(single, overlaps)(context.Background(), exs); len(out) != 1 || out[0].String() != "messy" {
		t.Fatalf("singleton handling broken: %v", out)
	}
}

func TestCostFunctions(t *testing.T) {
	leaf := Func{Name: "leaf", Bias: 2}
	if Cost(leaf) != 2 {
		t.Fatal("Func bias not used")
	}
	unknown := constSeqProgram("u", 1)
	if Cost(unknown) != 0 { // constSeqProgram is a Func with zero bias
		t.Fatalf("Cost(unknown Func) = %d", Cost(unknown))
	}
	m := &MapProgram{Name: "M", Var: "x", F: leaf, S: leaf}
	if Cost(m) != 4 {
		t.Fatalf("Map cost = %d, want 4", Cost(m))
	}
	fb := &FilterBoolProgram{Var: "x", B: leaf, S: leaf}
	if Cost(fb) != 4 {
		t.Fatalf("FilterBool cost = %d", Cost(fb))
	}
	fi := &FilterIntProgram{Init: 3, Iter: 2, S: leaf}
	if Cost(fi) != 2+6+4 {
		t.Fatalf("FilterInt cost = %d", Cost(fi))
	}
	mg := &MergeProgram{Args: []Program{leaf, leaf}}
	if Cost(mg) != 2+2+2 {
		t.Fatalf("Merge cost = %d", Cost(mg))
	}
	pr := &PairProgram{A: leaf, B: leaf}
	if Cost(pr) != 4 {
		t.Fatalf("Pair cost = %d", Cost(pr))
	}
}

type opaqueProgram struct{}

func (opaqueProgram) Exec(State) (Value, error) { return nil, nil }
func (opaqueProgram) String() string            { return "opaque" }

func TestCostDefaultsForNonCoster(t *testing.T) {
	if Cost(opaqueProgram{}) != DefaultLeafCost {
		t.Fatalf("default cost = %d", Cost(opaqueProgram{}))
	}
}

package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Program is an executable expression of a data-extraction DSL. Scalar
// programs return a single value; sequence programs return a []Value.
type Program interface {
	Exec(st State) (Value, error)
	String() string
}

// ErrNoMatch is returned by domain programs when an expression has no result
// on the given input (e.g. a position regex that does not match). Learners
// treat any execution error as inconsistency.
var ErrNoMatch = errors.New("core: expression has no match on this input")

// Func adapts a function (plus a description) into a Program. It is the
// usual way for domains to define leaf programs such as split(R0,'\n').
type Func struct {
	Name string
	F    func(st State) (Value, error)
	// Bias is the ranking cost of the function (see Coster).
	Bias int
}

// Exec runs the wrapped function.
func (p Func) Exec(st State) (Value, error) { return p.F(st) }

func (p Func) String() string { return p.Name }

// MapProgram applies the scalar program F, with Var bound to each element,
// to every element of the sequence produced by S (standard Map semantics).
type MapProgram struct {
	Name string // operator name used for display, e.g. "LinesMap"
	Var  string
	F    Program
	S    Program
}

// execMemoized executes p in st, consulting the state's execution memo for
// the sequence operators. Non-operator programs and memo-less states run
// directly. The memoized Value is shared; consumers must not mutate the
// returned sequence.
func execMemoized(p Program, st State) (Value, error) {
	if st.memo == nil {
		return p.Exec(st)
	}
	switch p.(type) {
	case *MapProgram, *FilterBoolProgram, *FilterIntProgram, *MergeProgram:
	default:
		return p.Exec(st)
	}
	key := execMemoKey{p: p, frame: st.frame}
	st.memo.mu.Lock()
	val, hit := st.memo.m[key]
	st.memo.mu.Unlock()
	if hit {
		return val.v, val.err
	}
	v, err := p.Exec(st)
	st.memo.mu.Lock()
	st.memo.m[key] = execMemoVal{v: v, err: err}
	st.memo.mu.Unlock()
	return v, err
}

// Exec implements strict Map semantics: an error from F on any element
// fails the whole Map.
func (p *MapProgram) Exec(st State) (Value, error) {
	sv, err := execMemoized(p.S, st)
	if err != nil {
		return nil, err
	}
	seq, err := AsSeq(sv)
	if err != nil {
		return nil, err
	}
	out := make([]Value, len(seq))
	for i, e := range seq {
		r, err := p.F.Exec(st.Bind(p.Var, e))
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	if st.cap != nil {
		for _, r := range out {
			st.cap.Note(r, "Map:"+p.Name)
		}
	}
	return out, nil
}

func (p *MapProgram) String() string {
	return fmt.Sprintf("%s(λ%s: %s, %s)", p.Name, p.Var, p.F, p.S)
}

// FilterBoolProgram selects the elements of S for which predicate B, with
// Var bound to the element, evaluates to true.
type FilterBoolProgram struct {
	Var string
	B   Program
	S   Program
}

// Exec evaluates B on every element of S and keeps the satisfying ones.
func (p *FilterBoolProgram) Exec(st State) (Value, error) {
	sv, err := execMemoized(p.S, st)
	if err != nil {
		return nil, err
	}
	seq, err := AsSeq(sv)
	if err != nil {
		return nil, err
	}
	var out []Value
	for _, e := range seq {
		r, err := p.B.Exec(st.Bind(p.Var, e))
		if err != nil {
			return nil, err
		}
		keep, ok := r.(bool)
		if !ok {
			return nil, fmt.Errorf("core: predicate %s returned %T, want bool", p.B, r)
		}
		if keep {
			out = append(out, e)
		}
	}
	if out == nil {
		out = []Value{}
	}
	if st.cap != nil {
		for _, e := range out {
			st.cap.Note(e, "FilterBool")
		}
	}
	return out, nil
}

func (p *FilterBoolProgram) String() string {
	// Predicate programs print their own λ-binder.
	return fmt.Sprintf("FilterBool(%s, %s)", p.B, p.S)
}

// FilterIntProgram takes every Iter-th element of S starting at index Init.
type FilterIntProgram struct {
	Init int
	Iter int
	S    Program
}

// Exec selects elements at indices Init, Init+Iter, Init+2·Iter, ….
func (p *FilterIntProgram) Exec(st State) (Value, error) {
	sv, err := execMemoized(p.S, st)
	if err != nil {
		return nil, err
	}
	seq, err := AsSeq(sv)
	if err != nil {
		return nil, err
	}
	if p.Iter <= 0 {
		return nil, fmt.Errorf("core: FilterInt iter must be positive, got %d", p.Iter)
	}
	out := []Value{}
	for i := p.Init; i >= 0 && i < len(seq); i += p.Iter {
		out = append(out, seq[i])
	}
	if st.cap != nil {
		step := fmt.Sprintf("FilterInt(%d,%d)", p.Init, p.Iter)
		for _, e := range out {
			st.cap.Note(e, step)
		}
	}
	return out, nil
}

func (p *FilterIntProgram) String() string {
	return fmt.Sprintf("FilterInt(%d, %d, %s)", p.Init, p.Iter, p.S)
}

// MergeProgram combines the sequences produced by its argument programs,
// ordering the merged elements by the domain's location order (Less) and
// removing duplicates. It is the disjunctive abstraction that allows
// extraction of multiple-format field instances.
type MergeProgram struct {
	Args []Program
	Less func(a, b Value) bool
}

// Exec runs every argument and merges the resulting sequences in document
// order, dropping duplicates.
func (p *MergeProgram) Exec(st State) (Value, error) {
	var all []Value
	for _, a := range p.Args {
		v, err := execMemoized(a, st)
		if err != nil {
			return nil, err
		}
		seq, err := AsSeq(v)
		if err != nil {
			return nil, err
		}
		all = append(all, seq...)
	}
	if p.Less != nil {
		sort.SliceStable(all, func(i, j int) bool { return p.Less(all[i], all[j]) })
	}
	out := []Value{}
	for _, v := range all {
		if len(out) == 0 || !Eq(out[len(out)-1], v) {
			out = append(out, v)
		}
	}
	// A single-argument Merge is a transparent wrapper (String elides it
	// too); only a real disjunction is a provenance step worth recording.
	if st.cap != nil && len(p.Args) > 1 {
		for _, v := range out {
			st.cap.Note(v, "Merge")
		}
	}
	return out, nil
}

func (p *MergeProgram) String() string {
	if len(p.Args) == 1 {
		return p.Args[0].String()
	}
	parts := make([]string, len(p.Args))
	for i, a := range p.Args {
		parts[i] = a.String()
	}
	return "Merge(" + strings.Join(parts, ", ") + ")"
}

// PairProgram evaluates both components and returns a PairValue.
type PairProgram struct {
	A, B Program
	// Make converts the two component values into the domain's region
	// representation. If nil, a PairValue is returned.
	Make func(a, b Value) (Value, error)
}

// PairValue is the default result of a PairProgram.
type PairValue struct {
	First, Second Value
}

// Exec evaluates both components.
func (p *PairProgram) Exec(st State) (Value, error) {
	a, err := p.A.Exec(st)
	if err != nil {
		return nil, err
	}
	b, err := p.B.Exec(st)
	if err != nil {
		return nil, err
	}
	var out Value
	if p.Make != nil {
		out, err = p.Make(a, b)
		if err != nil {
			return nil, err
		}
	} else {
		out = PairValue{First: a, Second: b}
	}
	if st.cap != nil {
		st.cap.Note(out, "Pair")
	}
	return out, nil
}

func (p *PairProgram) String() string {
	return fmt.Sprintf("Pair(%s, %s)", p.A, p.B)
}

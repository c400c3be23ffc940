// Package core implements the generic inductive synthesis framework of
// FlashExtract (PLDI 2014, §4): an algebra of sequence and scalar operators
// (Map, FilterBool, FilterInt, Merge, Pair) together with modular learning
// algorithms for each operator, parameterized by the learners of its
// arguments. A data-extraction DSL assembled from these operators obtains a
// sound and complete synthesizer for free (Theorems 1–3 of the paper).
//
// Values flowing through DSL programs are represented as the dynamic type
// Value. Domains must use comparable concrete types for the values they
// produce (the text, web, and spreadsheet instantiations use small structs
// of integers and pointers), or implement the Equaler interface.
package core

import (
	"fmt"
	"sync"
)

// Value is a value produced or consumed by a DSL program: a region, a
// position, a line, a boolean, or a sequence ([]Value) of these.
type Value = any

// Equaler may be implemented by domain values that are not directly
// comparable with ==.
type Equaler interface {
	EqValue(other Value) bool
}

// Interval may be implemented by sequence-output values that behave as
// half-open intervals [start, end) of a shared coordinate space, letting
// PreferNonOverlapping check a program's n outputs for pairwise overlap in
// O(n log n) instead of O(n²), the engine run Algorithm 1's bookkeeping
// (Def. 3 consistency, Fill's subregion lookups, duplicate removal) on
// regions in O(n log n) instead of O(n²), and CleanUp compare candidate
// outputs as integer pairs. CleanUp relies on the equality clause below:
// it takes two outputs of one space with equal endpoints to be Eq, and
// two with different endpoints not to be.
//
// Implementing it is a semantic contract relative to the overlaps relation
// the domain passes to PreferNonOverlapping: for any two output values a
// and b that both implement Interval, overlaps(a, b) must hold exactly
// when their spaces are identical and their intervals strictly intersect
// (a.start < b.end && b.start < a.end), and Eq(a, b) must hold exactly
// when spaces and endpoints all coincide. Regions that implement it must
// also order and nest as intervals within one space: Less orders by start
// ascending, then end descending, and a.Contains(b) holds exactly when
// a.start <= b.start && b.end <= a.end. Values whose overlap relation is
// richer — e.g. DOM nodes, where distinct nested nodes can share one text
// range, or 2-D spreadsheet rects — must NOT implement it; they keep the
// exact pairwise check. A space must be comparable with ==.
type Interval interface {
	Interval() (space any, start, end int)
}

// Eq reports whether two DSL values are equal. Sequences are compared
// element-wise; scalar values via Equaler if implemented, else ==.
func Eq(a, b Value) bool {
	if as, ok := a.([]Value); ok {
		bs, ok := b.([]Value)
		if !ok || len(as) != len(bs) {
			return false
		}
		for i := range as {
			if !Eq(as[i], bs[i]) {
				return false
			}
		}
		return true
	}
	if ae, ok := a.(Equaler); ok {
		return ae.EqValue(b)
	}
	return a == b
}

// IsSubsequence reports whether sub occurs within seq preserving order
// (the ⊑ relation used for positive-instance consistency, Def. 5).
func IsSubsequence(sub, seq []Value) bool {
	if len(sub) > len(seq) {
		return false
	}
	i := 0
	for _, v := range seq {
		if i == len(sub) {
			return true
		}
		if Eq(sub[i], v) {
			i++
		}
	}
	return i == len(sub)
}

// IndexOf returns the index of v in seq, or -1 if absent.
func IndexOf(seq []Value, v Value) int {
	for i, e := range seq {
		if Eq(e, v) {
			return i
		}
	}
	return -1
}

// ContainsValue reports whether seq contains v.
func ContainsValue(seq []Value, v Value) bool {
	return IndexOf(seq, v) >= 0
}

// AsSeq asserts that v is a sequence value.
func AsSeq(v Value) ([]Value, error) {
	s, ok := v.([]Value)
	if !ok {
		return nil, fmt.Errorf("core: expected sequence value, got %T", v)
	}
	return s, nil
}

// InputVar is the name of the distinguished free variable R0 that denotes
// the input region of a top-level SeqRegion or Region program.
const InputVar = "R0"

// State is an assignment to the free variables of a DSL program. States are
// immutable: Bind returns a new state sharing the previous bindings.
type State struct {
	frame *binding
	memo  *execMemo
	cap   *ExecCapture
}

type binding struct {
	name string
	val  Value
	next *binding
}

// execMemo memoizes sequence-operator executions per (program identity,
// binding frame). Programs are pure functions of their state, so within
// one synthesis session — where the same spec states flow through learner
// filtering, ranking, clean-up, and negative-instance checking — every
// re-execution of the same operator program is a repeat. The memo is
// carried by the state and shared across Bind, so a Filter or Merge
// wrapper re-running a memoized inner sequence hits the cache. Domain
// programs store their own shared values in it too, under keys of their
// own types (see Memo).
type execMemo struct {
	mu sync.Mutex
	m  map[any]execMemoVal
}

// execMemoKey is the memo key of a sequence operator's execution.
type execMemoKey struct {
	p     Program
	frame *binding
}

type execMemoVal struct {
	v   Value
	err error
}

// NewState creates a state binding the distinguished input variable R0.
func NewState(input Value) State {
	return State{}.Bind(InputVar, input)
}

// WithExecMemo equips the state with an execution memo for the sequence
// operators (Map, FilterBool, FilterInt, Merge) and for the values domain
// programs share through Memo. Memoized results are shared slices and
// must be treated as read-only by program consumers — which the operator
// algebra already guarantees. The DSL synthesizers enable it on the states
// of their specs, so it lives for one synthesis call; execution of final
// programs on fresh states is unaffected.
func (s State) WithExecMemo() State {
	if s.memo == nil {
		s.memo = &execMemo{m: map[any]execMemoVal{}}
	}
	return s
}

// Memo returns what st's execution memo holds under key, and on a miss
// runs f and stores its result (value and error) under key; a state
// without a memo just runs f. Concurrent misses may each run f, and all
// get the result stored first. A package should key its entries with
// types of its own so that they cannot collide with another's. What Memo
// returns is shared with every later caller and must be treated as
// read-only. Memo is generic in the key so that a hit does not box it.
func Memo[K comparable](st State, key K, f func() (Value, error)) (Value, error) {
	m := st.memo
	if m == nil {
		return f()
	}
	m.mu.Lock()
	val, hit := m.m[key]
	m.mu.Unlock()
	if hit {
		return val.v, val.err
	}
	v, err := f()
	m.mu.Lock()
	if first, raced := m.m[key]; raced {
		v, err = first.v, first.err
	} else {
		m.m[key] = execMemoVal{v: v, err: err}
	}
	m.mu.Unlock()
	return v, err
}

// WithCapture equips the state with an execution capture: every sequence
// and pair operator notes its output values into it, mapping each emitted
// value to the path of operator subexpressions that produced it. Like the
// memo, the capture is carried through Bind, so nested operators share it.
// States without a capture pay one nil check per operator — the
// provenance-off fast path.
func (s State) WithCapture(c *ExecCapture) State {
	s.cap = c
	return s
}

// Capture returns the state's execution capture, or nil.
func (s State) Capture() *ExecCapture { return s.cap }

// Bind returns a new state with name bound to v, shadowing any previous
// binding of the same name.
func (s State) Bind(name string, v Value) State {
	return State{frame: &binding{name: name, val: v, next: s.frame}, memo: s.memo, cap: s.cap}
}

// Lookup returns the value bound to name.
func (s State) Lookup(name string) (Value, bool) {
	for b := s.frame; b != nil; b = b.next {
		if b.name == name {
			return b.val, true
		}
	}
	return nil, false
}

// Input returns the value of the distinguished input variable R0.
// It panics if the state was not created with NewState.
func (s State) Input() Value {
	v, ok := s.Lookup(InputVar)
	if !ok {
		panic("core: state has no input binding " + InputVar)
	}
	return v
}

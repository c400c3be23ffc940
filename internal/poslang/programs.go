// Package poslang implements the position sublanguage that Ltext (Fig. 7
// of the paper) and Lweb (Fig. 8) share, with its learners:
//
//	PS := FilterInt(init, iter, PosSeq(R0, rr))
//	SS := StartSeqMap(λx: Pair(x, Pos(R0[x:], p)), PS)
//	    | EndSeqMap(λx: Pair(Pos(R0[:x], p), x), PS)
//	N2 := Pair(Pos(R0, p1), Pos(R0, p2))
//
// A DSL's regions implement Region, through which the programs read R0
// and build the regions they return, and the DSL's Dialect constant
// supplies the rest of what differs: codec names, prefilter conditions
// and the token pool's dynamic-token length.
package poslang

import (
	"fmt"

	"flashextract/internal/core"
	"flashextract/internal/prefilter"
	"flashextract/internal/tokens"
)

// Region is a DSL's region as the sublanguage reads it: R0, and the
// regions its programs return. textlang.Region, weblang.NodeRegion and
// weblang.SpanRegion implement it.
type Region interface {
	// Cache returns the evaluation cache of the region's document.
	Cache() *tokens.Cache
	// TextRange returns the region's range [lo, hi) in the cache's text.
	TextRange() (lo, hi int)
	// Sub returns the DSL's region of [lo, hi) in the same document.
	Sub(lo, hi int) core.Value
}

// Dialect is what the position programs of one DSL differ in: the
// prefix of their codec names, the flavour of their prefilter conditions
// and the longest dynamic token of their token pool.
type Dialect uint8

const (
	// Text is Ltext's dialect: "text." programs, whose prefilter
	// conditions hold on the document's bytes, and dynamic tokens of up to
	// 6 bytes.
	Text Dialect = iota
	// Web is Lweb's dialect: "web." programs over the page's text content,
	// whose prefilter conditions are the HTML-widened forms, and dynamic
	// tokens of up to 8 bytes. Its sequence programs run under a node
	// only, as its XPaths do.
	Web
)

// op returns the codec name of one of the programs, where Lweb calls the
// region pair a span pair.
func (d Dialect) op(name string) string {
	if d == Text {
		return "text." + name
	}
	if name == "regionPair" {
		name = "spanPair"
	}
	return "web." + name
}

// condAttr is the prefilter condition of a position attribute.
func (d Dialect) condAttr(a tokens.Attr) prefilter.Cond {
	if d == Text {
		return prefilter.CondAttr(a)
	}
	return prefilter.CondAttrHTML(a)
}

// condRegexPair is the prefilter condition of a regex pair's position.
func (d Dialect) condRegexPair(rr tokens.RegexPair) prefilter.Cond {
	if d == Text {
		return prefilter.CondRegexPair(rr)
	}
	return prefilter.CondRegexPairHTML(rr)
}

// dynMaxLen is the longest dynamic token of the token pool.
func (d Dialect) dynMaxLen() int {
	if d == Text {
		return 6
	}
	return 8
}

// PosSeq returns PosSeq(R0, rr).
func (d Dialect) PosSeq(rr tokens.RegexPair) core.Program { return &posSeqProg{d: d, rr: rr} }

// StartPair returns λx: Pair(x, Pos(R0[x:], p)).
func (d Dialect) StartPair(p tokens.Attr) core.Program { return seqPairProg{d: d, p: p} }

// EndPair returns λx: Pair(Pos(R0[:x], p), x).
func (d Dialect) EndPair(p tokens.Attr) core.Program { return seqPairProg{d: d, p: p, end: true} }

// RegionPair returns Pair(Pos(R0, p1), Pos(R0, p2)).
func (d Dialect) RegionPair(p1, p2 tokens.Attr) core.Program {
	return regionPairProg{d: d, p1: p1, p2: p2}
}

// inputOf reads R0 from a state.
func inputOf(st core.State) (Region, error) {
	r, ok := st.Input().(Region)
	if !ok {
		return nil, fmt.Errorf("poslang: input is %T, want a region with text positions", st.Input())
	}
	return r, nil
}

// seqInput reads R0 of PosSeq: any region in Ltext, and in Lweb a node,
// since a web span R0 fails its sequence programs as it fails XPaths.
func (d Dialect) seqInput(st core.State) (Region, error) {
	r, err := inputOf(st)
	if err == nil && d == Web {
		if _, _, _, span := spanOf(r); span {
			return nil, fmt.Errorf("poslang: input is %T, want a node", r)
		}
	}
	return r, err
}

// spanOf reads v as a span, a region the sublanguage builds: a Region
// that is its own sub-range. A web node, whose sub-ranges are spans, is
// not one.
func spanOf(v core.Value) (r Region, lo, hi int, ok bool) {
	r, ok = v.(Region)
	if !ok {
		return nil, 0, 0, false
	}
	lo, hi = r.TextRange()
	return r, lo, hi, r.Sub(lo, hi) == v
}

// X is the λ-bound variable of the sublanguage's map bodies, and of every
// Map and Filter of Ltext and Lweb.
const X = "x"

// ExecOne is the Exec of a λ-body: at, the body's evaluation for one
// value of x, on the value st binds to x.
func ExecOne(st core.State, at func(x core.Value) (core.Value, error)) (core.Value, error) {
	x, ok := st.Lookup(X)
	if !ok {
		return nil, fmt.Errorf("poslang: free variable %s is unbound", X)
	}
	return at(x)
}

// Sweep is the ExecSeq of a λ-body: at, the body's evaluation for one
// value of x, runs on each element of xs in order, stopping at the first
// error. Each body binds its attributes, regex and R0 once, before the
// sweep, and at carries them from one element to the next. A Map or
// Filter that binds another variable than x gets the per-element loop,
// which is what Exec sees there.
func Sweep(body core.Program, st core.State, v string, xs []core.Value, at func(x core.Value) (core.Value, error)) ([]core.Value, error) {
	if v != X {
		return core.ExecEach(body, st, v, xs)
	}
	out := make([]core.Value, len(xs))
	for i, x := range xs {
		r, err := at(x)
		if err != nil {
			return out[:i], err
		}
		out[i] = r
	}
	return out, nil
}

// asPos asserts that a value of x is a position.
func asPos(v core.Value) (int, error) {
	k, ok := v.(int)
	if !ok {
		return 0, fmt.Errorf("poslang: %s is %T, want a position", X, v)
	}
	return k, nil
}

// input reads R0 from a state on first use, so a sweep reads it once and
// reports its error on the first element that needs it, as Exec would.
type input struct {
	st     core.State
	read   bool
	r0     Region
	c      *tokens.Cache
	lo, hi int
	err    error
}

func (in *input) region() error {
	if !in.read {
		in.read = true
		if in.r0, in.err = inputOf(in.st); in.err == nil {
			in.c = in.r0.Cache()
			in.lo, in.hi = in.r0.TextRange()
		}
	}
	return in.err
}

// posSeqProg is PosSeq(R0, rr): the sequence of absolute positions in R0
// identified by the regex pair rr. It is used by pointer, so that a
// program is a key of the exec memo.
type posSeqProg struct {
	d  Dialect
	rr tokens.RegexPair
}

// posSeqKey keys a PosSeq's boxed positions in a spec state's exec memo.
type posSeqKey struct {
	p  *posSeqProg
	r0 Region
}

// Exec boxes the cached positions of rr in R0, once per spec state: the
// FilterInt learner runs the same PosSeq to derive, check and clean up
// its filters, and the boxed list is shared read-only through the exec
// memo.
func (p *posSeqProg) Exec(st core.State) (core.Value, error) {
	r0, err := p.d.seqInput(st)
	if err != nil {
		return nil, err
	}
	return core.Memo(st, posSeqKey{p, r0}, func() (core.Value, error) {
		lo, hi := r0.TextRange()
		ps := r0.Cache().Positions(lo, hi, p.rr)
		out := make([]core.Value, len(ps))
		for i, k := range ps {
			out[i] = lo + k
		}
		return out, nil
	})
}

func (p *posSeqProg) String() string { return fmt.Sprintf("PosSeq(R0, %s)", p.rr) }

// Cost of a position sequence is the cost of its regex pair.
func (p *posSeqProg) Cost() int { return p.rr.Cost() }

// seqPairProg is the map function of StartSeqMap, λx: Pair(x,
// Pos(R0[x:], p)), where x is a start position and p finds the end on the
// suffix of R0 from x, or, with end set, of EndSeqMap, λx: Pair(Pos(R0[:x],
// p), x), where x is an end position and p finds the start on the prefix
// of R0 up to x.
type seqPairProg struct {
	d   Dialect
	p   tokens.Attr
	end bool
}

func (p seqPairProg) Exec(st core.State) (core.Value, error) {
	in, e := input{st: st}, tokens.NewAttrEval(p.p)
	return ExecOne(st, func(x core.Value) (core.Value, error) { return p.at(&in, &e, x) })
}

// ExecSeq reads R0 and binds p once for all the suffixes or prefixes.
func (p seqPairProg) ExecSeq(st core.State, v string, xs []core.Value) ([]core.Value, error) {
	in, e := input{st: st}, tokens.NewAttrEval(p.p)
	return Sweep(p, st, v, xs, func(x core.Value) (core.Value, error) { return p.at(&in, &e, x) })
}

// at evaluates the body on the position xv, with p bound in e.
func (p seqPairProg) at(in *input, e *tokens.AttrEval, xv core.Value) (core.Value, error) {
	x, err := asPos(xv)
	if err != nil {
		return nil, err
	}
	if err := in.region(); err != nil {
		return nil, err
	}
	if x < in.lo || x > in.hi {
		return nil, core.ErrNoMatch
	}
	if p.end {
		k, err := e.Eval(in.c, in.lo, x)
		if err != nil {
			return nil, err
		}
		return in.r0.Sub(in.lo+k, x), nil
	}
	k, err := e.Eval(in.c, x, in.hi)
	if err != nil {
		return nil, err
	}
	return in.r0.Sub(x, x+k), nil
}

func (p seqPairProg) String() string {
	if p.end {
		return fmt.Sprintf("Pair(Pos(R0[:x], %s), x)", p.p)
	}
	return fmt.Sprintf("Pair(x, Pos(R0[x:], %s))", p.p)
}

// Cost carries a small bias so that line-structured extraction is
// preferred over raw position pairing when both fit.
func (p seqPairProg) Cost() int { return p.p.Cost() + 1 }

// regionPairProg is the N2 region program Pair(Pos(R0, p1), Pos(R0, p2)).
type regionPairProg struct {
	d      Dialect
	p1, p2 tokens.Attr
}

func (p regionPairProg) Exec(st core.State) (core.Value, error) {
	r0, err := inputOf(st)
	if err != nil {
		return nil, err
	}
	c := r0.Cache()
	lo, hi := r0.TextRange()
	a, err := c.EvalAttr(lo, hi, p.p1)
	if err != nil {
		return nil, err
	}
	b, err := c.EvalAttr(lo, hi, p.p2)
	if err != nil {
		return nil, err
	}
	if a > b {
		return nil, core.ErrNoMatch
	}
	return r0.Sub(lo+a, lo+b), nil
}

func (p regionPairProg) String() string {
	return fmt.Sprintf("Pair(Pos(R0, %s), Pos(R0, %s))", p.p1, p.p2)
}

// Cost of a region pair is the cost of its two position attributes.
func (p regionPairProg) Cost() int { return p.p1.Cost() + p.p2.Cost() }

// ---- prefilter conditions (see prefilter.Admissible) ----

// AdmissionCond: a PosSeq position requires its regex pair to match.
func (p *posSeqProg) AdmissionCond() prefilter.Cond { return p.d.condRegexPair(p.rr) }

// AdmissionCond: the attribute must evaluate on the suffix or prefix.
func (p seqPairProg) AdmissionCond() prefilter.Cond { return p.d.condAttr(p.p) }

// AdmissionCond: both position attributes must evaluate on the region.
func (p regionPairProg) AdmissionCond() prefilter.Cond {
	return prefilter.And(p.d.condAttr(p.p1), p.d.condAttr(p.p2))
}

// Package poslang implements the position sublanguage of Ltext (Fig. 7 of
// the paper) and Lweb (Fig. 8), with its learners: every program of the
// two DSLs that finds positions in a region's text.
//
//	PS := FilterInt(init, iter, PosSeq(R0, rr))
//	    | LinesMap(λx: Pos(x, p), LS)                                (Ltext)
//	SS := StartSeqMap(λx: Pair(x, Pos(R0[x:], p)), PS)
//	    | EndSeqMap(λx: Pair(Pos(R0[:x], p), x), PS)
//	    | LinesMap(λx: Pair(Pos(x, p1), Pos(x, p2)), LS)            (Ltext)
//	    | SeqPairMap(λx: Pair(Pos(x.Val, p1), Pos(x.Val, p2)), ES)  (Lweb)
//	N2 := Pair(Pos(R0, p1), Pos(R0, p2))
//
// The DSLs keep the sequences LS and ES the map bodies run over, and the
// decompositions of LinesMap and SeqPairMap. A DSL's regions implement
// Region, through which the programs read R0 and x and build the regions
// they return, and the DSL's Dialect constant supplies the rest of what
// differs: codec names, String forms, prefilter conditions and the token
// pool's dynamic-token length.
package poslang

import (
	"fmt"

	"flashextract/internal/core"
	"flashextract/internal/prefilter"
	"flashextract/internal/tokens"
)

// Region is a DSL's region as the sublanguage reads it: R0, the λ-bound
// x, and the regions its programs return. textlang.Region,
// weblang.NodeRegion and weblang.SpanRegion implement it.
type Region interface {
	// Cache returns the evaluation cache of the region's document.
	Cache() *tokens.Cache
	// TextRange returns the region's range [lo, hi) in the cache's text.
	TextRange() (lo, hi int)
	// Sub returns the DSL's region of [lo, hi) in the same document.
	Sub(lo, hi int) core.Value
}

// Dialect is what the position programs of one DSL differ in: their codec
// names and String forms, the flavour of their prefilter conditions and
// the longest dynamic token of their token pool.
type Dialect uint8

const (
	// Text is Ltext's dialect: "text." programs, whose prefilter
	// conditions hold on the document's bytes, and dynamic tokens of up to
	// 6 bytes. Its map bodies run over lines.
	Text Dialect = iota
	// Web is Lweb's dialect: "web." programs over the page's text content,
	// whose prefilter conditions are the HTML-widened forms, and dynamic
	// tokens of up to 8 bytes. Its map bodies run over nodes, and its
	// sequence programs run under a node only, as its XPaths do.
	Web
)

// op returns the codec name of one of the programs, where Lweb calls the
// region pair a span pair and the pair over x a node-span pair.
func (d Dialect) op(name string) string {
	if d == Text {
		return "text." + name
	}
	switch name {
	case "regionPair":
		name = "spanPair"
	case "linePair":
		name = "nodeSpanPair"
	}
	return "web." + name
}

// x names the λ-bound x of the map bodies: how their String forms read
// its text, and the form of the pair learner's trace span. In Ltext x is
// a line, and in Lweb a node, whose text is x.Val.
func (d Dialect) x() (val, form string) {
	if d == Text {
		return "x", "line"
	}
	return "x.Val", "node"
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
func (d Dialect) RegionPair(p1, p2 tokens.Attr) core.Program { return pairProg{d: d, p1: p1, p2: p2} }

// XPair returns λx: Pair(Pos(x, p1), Pos(x, p2)), the body of Ltext's
// LinesMap and of Lweb's SeqPairMap.
func (d Dialect) XPair(p1, p2 tokens.Attr) core.Program {
	return pairProg{d: d, p1: p1, p2: p2, x: true}
}

// XPos returns λx: Pos(x, p), the body of the LinesMap rule of Ltext's PS.
func (d Dialect) XPos(p tokens.Attr) core.Program { return posProg{d: d, p: p} }

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
	if err == nil && d == Web && isSpan(r) {
		return nil, fmt.Errorf("poslang: input is %T, want a node", r)
	}
	return r, err
}

// xRegion reads a value of x as a map body's region: in Ltext a line,
// which the body takes as any span, and in Lweb a node. A web span fails
// SeqPairMap's body as it fails PosSeq.
func (d Dialect) xRegion(v core.Value) (Region, error) {
	if r, ok := v.(Region); ok && isSpan(v) == (d == Text) {
		return r, nil
	}
	_, form := d.x()
	return nil, fmt.Errorf("poslang: %s is %T, want a %s", X, v, form)
}

// region reads the region a pair or position body finds its positions
// in: R0, or with x the value st binds to x.
func (d Dialect) region(st core.State, x bool) (Region, error) {
	if !x {
		return inputOf(st)
	}
	v, err := lookupX(st)
	if err != nil {
		return nil, err
	}
	return d.xRegion(v)
}

// isSpan reports whether v is a span, a region the sublanguage builds,
// which its interval identifies (core.Interval). A web node is not one:
// nested nodes can share one text range.
func isSpan(v core.Value) bool {
	_, ok := v.(core.Interval)
	return ok
}

// spanOf reads v as a span and its text range.
func spanOf(v core.Value) (r Region, lo, hi int, ok bool) {
	r, ok = v.(Region)
	if !ok || !isSpan(v) {
		return nil, 0, 0, false
	}
	lo, hi = r.TextRange()
	return r, lo, hi, true
}

// X is the λ-bound variable of the sublanguage's map bodies, and of every
// Map and Filter of Ltext and Lweb.
const X = "x"

// lookupX reads the value st binds to x.
func lookupX(st core.State) (core.Value, error) {
	x, ok := st.Lookup(X)
	if !ok {
		return nil, fmt.Errorf("poslang: free variable %s is unbound", X)
	}
	return x, nil
}

// ExecOne is the Exec of a λ-body: at, the body's evaluation for one
// value of x, on the value st binds to x.
func ExecOne(st core.State, at func(x core.Value) (core.Value, error)) (core.Value, error) {
	x, err := lookupX(st)
	if err != nil {
		return nil, err
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

// pos is Pos(r, p), with p bound in e: the absolute position p finds in
// r's text. It is the one evaluation of the pair and position bodies on
// R0, a line or a node.
func pos(e *tokens.AttrEval, r Region) (int, error) {
	lo, hi := r.TextRange()
	k, err := e.Eval(r.Cache(), lo, hi)
	return lo + k, err
}

// pairProg is Pair(Pos(r, p1), Pos(r, p2)), the span of r between the
// positions p1 and p2 find in it. Its r is R0, for the N2 program, or with
// x set the λ-bound x, for the body of Ltext's LinesMap, where x is a
// line, and of Lweb's SeqPairMap, where x is a node.
type pairProg struct {
	d      Dialect
	p1, p2 tokens.Attr
	x      bool
}

func (p pairProg) Exec(st core.State) (core.Value, error) {
	r, err := p.d.region(st, p.x)
	if err != nil {
		return nil, err
	}
	e1, e2 := tokens.NewAttrEval(p.p1), tokens.NewAttrEval(p.p2)
	a, err := pos(&e1, r)
	if err != nil {
		return nil, err
	}
	b, err := pos(&e2, r)
	if err != nil {
		return nil, err
	}
	if a > b {
		return nil, core.ErrNoMatch
	}
	return r.Sub(a, b), nil
}

// ExecSeq zips the columns of p1 and p2 over the regions xs: the span of
// region i lies between the two columns' positions there. The first
// region where a column fails, or where p1's position is past p2's, ends
// the sequence with its error, p1's first on a region where both fail, as
// evaluating the body region by region would.
func (p pairProg) ExecSeq(st core.State, v string, xs []core.Value) ([]core.Value, error) {
	if !p.x || v != X {
		return core.ExecEach(p, st, v, xs)
	}
	c1, c2 := p.d.columnOf(st, p.p1, xs), p.d.columnOf(st, p.p2, xs)
	n := min(len(c1.pos), len(c2.pos))
	out := make([]core.Value, n)
	for i := range out {
		a, b := c1.pos[i], c2.pos[i]
		if a > b {
			return out[:i], core.ErrNoMatch
		}
		out[i] = xs[i].(Region).Sub(a, b) // both columns read region i
	}
	if n == len(c1.pos) && c1.err != nil {
		return out, c1.err
	}
	return out, c2.err
}

func (p pairProg) String() string {
	r := "R0"
	if p.x {
		r, _ = p.d.x()
	}
	return fmt.Sprintf("Pair(Pos(%s, %s), Pos(%s, %s))", r, p.p1, r, p.p2)
}

// Cost of a pair is the cost of its two position attributes.
func (p pairProg) Cost() int { return p.p1.Cost() + p.p2.Cost() }

// posProg is λx: Pos(x, p), the position p finds in the λ-bound line x:
// the body of the LinesMap rule of Ltext's PS.
type posProg struct {
	d Dialect
	p tokens.Attr
}

func (p posProg) Exec(st core.State) (core.Value, error) {
	e := tokens.NewAttrEval(p.p)
	return ExecOne(st, func(x core.Value) (core.Value, error) { return p.at(&e, x) })
}

// ExecSeq binds p once for all the regions.
func (p posProg) ExecSeq(st core.State, v string, xs []core.Value) ([]core.Value, error) {
	e := tokens.NewAttrEval(p.p)
	return Sweep(p, st, v, xs, func(x core.Value) (core.Value, error) { return p.at(&e, x) })
}

// at evaluates the body on the value xv of x, with p bound in e.
func (p posProg) at(e *tokens.AttrEval, xv core.Value) (core.Value, error) {
	x, err := p.d.xRegion(xv)
	if err != nil {
		return nil, err
	}
	k, err := pos(e, x)
	if err != nil {
		return nil, err
	}
	return k, nil
}

func (p posProg) String() string {
	x, _ := p.d.x()
	return fmt.Sprintf("Pos(%s, %s)", x, p.p)
}

// Cost of a position is the cost of its attribute.
func (p posProg) Cost() int { return p.p.Cost() }

// column is one position attribute evaluated on every region of a
// sequence, up to the first region where it fails: pos[i] is its absolute
// position in region i, and err is its failure on region len(pos), or nil
// when it holds on every region.
type column struct {
	attr tokens.Attr
	pos  []int
	err  error
}

// columnKey keys a column in a spec state's exec memo: its dialect, its
// attribute by fingerprint, which the column's attr confirms, and its
// region sequence by identity. A Map gets the same read-only slice from a
// memoized S on every run, so all the pairs crossed with one S share the
// columns of their attributes.
type columnKey struct {
	d    Dialect
	attr uint64
	xs   *core.Value
	n    int
}

// columnOf returns the column of a over the regions xs, through st's exec
// memo.
func (d Dialect) columnOf(st core.State, a tokens.Attr, xs []core.Value) *column {
	h, ok := tokens.AttrFingerprint(a)
	if !ok || len(xs) == 0 {
		return d.evalColumn(a, xs)
	}
	v, _ := core.Memo(st, columnKey{d, h, &xs[0], len(xs)}, func() (core.Value, error) { return d.evalColumn(a, xs), nil })
	if c := v.(*column); tokens.SameAttr(c.attr, a) {
		return c
	}
	return d.evalColumn(a, xs) // a fingerprint collision
}

// evalColumn evaluates a on the regions xs in order, binding it once.
func (d Dialect) evalColumn(a tokens.Attr, xs []core.Value) *column {
	c := &column{attr: a, pos: make([]int, 0, len(xs))}
	e := tokens.NewAttrEval(a)
	for _, xv := range xs {
		x, err := d.xRegion(xv)
		if err != nil {
			c.err = err
			break
		}
		k, err := pos(&e, x)
		if err != nil {
			c.err = err
			break
		}
		c.pos = append(c.pos, k)
	}
	return c
}

// ---- prefilter conditions (see prefilter.Admissible) ----

// AdmissionCond: a PosSeq position requires its regex pair to match.
func (p *posSeqProg) AdmissionCond() prefilter.Cond { return p.d.condRegexPair(p.rr) }

// AdmissionCond: the attribute must evaluate on the suffix or prefix.
func (p seqPairProg) AdmissionCond() prefilter.Cond { return p.d.condAttr(p.p) }

// AdmissionCond: both position attributes must evaluate on the region.
func (p pairProg) AdmissionCond() prefilter.Cond {
	return prefilter.And(p.d.condAttr(p.p1), p.d.condAttr(p.p2))
}

// AdmissionCond: the position attribute must evaluate on the line.
func (p posProg) AdmissionCond() prefilter.Cond { return p.d.condAttr(p.p) }

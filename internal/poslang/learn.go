package poslang

import (
	"context"
	"fmt"
	"sort"

	"flashextract/internal/core"
	"flashextract/internal/engine"
	"flashextract/internal/region"
	"flashextract/internal/tokens"
	"flashextract/internal/trace"
)

// attrCap bounds how many position attributes a learner keeps, so that
// crossing start and end attribute lists stays small.
const attrCap = 12

// dynMinOccur and dynCap parameterize dynamic-token discovery, with the
// dialect's dynMaxLen.
const (
	dynMinOccur = 2
	dynCap      = 24
)

// Learner learns the sublanguage's programs within one synthesis call.
// The learners name each example string as a range of its document's
// evaluation cache, whose token boundaries they share.
type Learner struct {
	d Dialect
	// Toks is the call's token pool: the standard tokens, then the dynamic
	// tokens promoted from the neighbourhood of the examples.
	Toks []tokens.Token
}

// NewLearner returns the learner of a synthesis call on the document
// whose text c caches, with dynamic tokens promoted around the ends of
// the boundary regions, the examples' outputs. A region the sublanguage
// cannot read contributes none.
func (d Dialect) NewLearner(c *tokens.Cache, boundary []region.Region) *Learner {
	text := c.Text()
	var pexs []tokens.PosExample
	for _, b := range boundary {
		if r, ok := b.(Region); ok {
			lo, hi := r.TextRange()
			pexs = append(pexs, tokens.PosExample{S: text, K: lo}, tokens.PosExample{S: text, K: hi})
		}
	}
	dyn := tokens.DiscoverDynamicTokens(text, pexs, d.dynMaxLen(), dynMinOccur, dynCap)
	pool := make([]tokens.Token, 0, len(tokens.Standard)+len(dyn))
	pool = append(pool, tokens.Standard...)
	pool = append(pool, dyn...)
	return &Learner{d: d, Toks: pool}
}

// Attrs learns the position attributes consistent with exs from the
// pool, in rank order, keeping the first attrCap.
func (l *Learner) Attrs(ctx context.Context, exs []tokens.PosExample) []tokens.Attr {
	as := tokens.LearnAttrsStop(exs, l.Toks, core.StopFunc(ctx))
	if len(as) > attrCap {
		return as[:attrCap]
	}
	return as
}

// tracePair runs a pair learner in a "pair" trace span of the given form,
// which records how many examples it learned from and how many programs
// it returned.
func tracePair(form string, learn core.ScalarLearner) core.ScalarLearner {
	return func(ctx context.Context, exs []core.Example) (out []core.Program) {
		ctx, sp := trace.Start(ctx, "pair")
		if sp != nil {
			sp.SetString("form", form)
			defer func() {
				sp.SetInt("examples", int64(len(exs)))
				sp.SetInt("programs", int64(len(out)))
				sp.End()
			}()
		}
		return learn(ctx, exs)
	}
}

// SynthesizeRegion learns N2 programs Pair(Pos(R0, p1), Pos(R0, p2)) from
// examples whose inputs are Regions and whose outputs are spans within
// them, and returns nil for any other examples.
func (d Dialect) SynthesizeRegion(ctx context.Context, exs []engine.RegionExample) []core.Program {
	if len(exs) == 0 {
		return nil
	}
	var c *tokens.Cache
	var boundary []region.Region
	coreExs := make([]core.Example, len(exs))
	for i, ex := range exs {
		in, ok := ex.Input.(Region)
		if _, _, _, span := spanOf(ex.Output); !ok || !span || !ex.Input.Contains(ex.Output) {
			return nil
		}
		c = in.Cache()
		boundary = append(boundary, ex.Output)
		coreExs[i] = core.Example{State: core.NewState(ex.Input), Output: ex.Output}
	}
	l := d.NewLearner(c, boundary)
	return core.SynthesizeRegionProg(ctx, tracePair("region", l.learnPair(false)), coreExs)
}

// XPair learns λx: Pair(Pos(x, p1), Pos(x, p2)), the body of Ltext's
// LinesMap and Lweb's SeqPairMap, from examples that bind x to a line or
// a node and output a span within it, in a "pair" trace span of form
// "line" or "node".
func (l *Learner) XPair(ctx context.Context, exs []core.Example) []core.Program {
	_, form := l.d.x()
	return tracePair(form, l.learnPair(true))(ctx, exs)
}

// learnPair learns Pair(Pos(r, p1), Pos(r, p2)) from examples that
// output a span within r: R0, or with x the region each example binds to
// x. It crosses the start attributes with the end attributes, polling the
// budget before each start attribute.
func (l *Learner) learnPair(x bool) core.ScalarLearner {
	return func(ctx context.Context, exs []core.Example) (out []core.Program) {
		var sExs, eExs []tokens.PosExample
		for _, ex := range exs {
			r, err := l.d.region(ex.State, x)
			y, ylo, yhi, span := spanOf(ex.Output)
			if err != nil || !span || !within(r, y, ylo, yhi) {
				return nil
			}
			sExs = append(sExs, posExample(r, ylo))
			eExs = append(eExs, posExample(r, yhi))
		}
		p1s, p2s := l.Attrs(ctx, sExs), l.Attrs(ctx, eExs)
		bud := core.BudgetFrom(ctx)
		for _, p1 := range p1s {
			if bud.ExhaustedNow() {
				break
			}
			for _, p2 := range p2s {
				out = append(out, pairProg{d: l.d, p1: p1, p2: p2, x: x})
			}
		}
		return out
	}
}

// XPos learns λx: Pos(x, p), the body of the LinesMap rule of Ltext's PS,
// from examples that bind x to a line and output a position within it.
func (l *Learner) XPos(ctx context.Context, exs []core.Example) []core.Program {
	var pexs []tokens.PosExample
	for _, ex := range exs {
		x, err := l.d.region(ex.State, true)
		k, ok := ex.Output.(int)
		if err != nil || !ok || !within(x, x, k, k) {
			return nil
		}
		pexs = append(pexs, posExample(x, k))
	}
	attrs := l.Attrs(ctx, pexs)
	out := make([]core.Program, len(attrs))
	for i, p := range attrs {
		out[i] = posProg{d: l.d, p: p}
	}
	return out
}

// within reports whether [lo, hi) in y's document lies in r.
func within(r, y Region, lo, hi int) bool {
	rlo, rhi := r.TextRange()
	return y.Cache() == r.Cache() && rlo <= lo && hi <= rhi
}

// posExample is the example of a position attribute that finds the
// absolute position k in r's text.
func posExample(r Region, k int) tokens.PosExample {
	c := r.Cache()
	lo, hi := r.TextRange()
	return tokens.PosExample{S: c.Text()[lo:hi], K: k - lo, C: c, Lo: lo}
}

// PS is the learner of PS ::= FilterInt(init, iter, PosSeq(R0, rr)).
func (l *Learner) PS() core.SeqLearner {
	return core.FilterIntOp{S: l.learnPosSeq}.Learn
}

// learnPosSeq learns PosSeq(R0, rr) programs from positive position
// instances.
func (l *Learner) learnPosSeq(ctx context.Context, exs []core.SeqExample) []core.Program {
	var spexs []tokens.SeqPosExample
	for _, ex := range exs {
		r0, err := l.d.seqInput(ex.State)
		if err != nil {
			return nil
		}
		c := r0.Cache()
		lo, hi := r0.TextRange()
		sp := tokens.SeqPosExample{S: c.Text()[lo:hi], C: c, Lo: lo}
		for _, v := range ex.Positive {
			k, ok := v.(int)
			if !ok || k < lo || k > hi {
				return nil
			}
			sp.Ks = append(sp.Ks, k-lo)
		}
		sort.Ints(sp.Ks)
		spexs = append(spexs, sp)
	}
	pairs := tokens.LearnRegexPairsStop(spexs, l.Toks, core.StopFunc(ctx))
	out := make([]core.Program, len(pairs))
	for i, rr := range pairs {
		out[i] = &posSeqProg{d: l.d, rr: rr}
	}
	return out
}

// StartSeqMap is SS ::= StartSeqMap(λx: Pair(x, Pos(R0[x:], p)), PS),
// where ps learns the DSL's PS.
func (l *Learner) StartSeqMap(ps core.SeqLearner) core.MapOp {
	return l.seqMap("StartSeqMap", "start", false, ps)
}

// EndSeqMap is SS ::= EndSeqMap(λx: Pair(Pos(R0[:x], p), x), PS), where
// ps learns the DSL's PS.
func (l *Learner) EndSeqMap(ps core.SeqLearner) core.MapOp {
	return l.seqMap("EndSeqMap", "end", true, ps)
}

// seqMap is the StartSeqMap rule, or with end the EndSeqMap rule, whose
// pair learner's trace span has the given form. Its witness of an output
// is the start or end position of each of its spans.
func (l *Learner) seqMap(name, form string, end bool, ps core.SeqLearner) core.MapOp {
	return core.MapOp{
		Name: name,
		Var:  X,
		F:    tracePair(form, l.learnSeqPair(end)),
		S:    ps,
		Decompose: func(_ core.State, y []core.Value) ([]core.Value, error) {
			out := make([]core.Value, len(y))
			for i, v := range y {
				_, lo, hi, ok := spanOf(v)
				if !ok {
					return nil, fmt.Errorf("poslang: %s output is %T, want a span", name, v)
				}
				if end {
					out[i] = hi
				} else {
					out[i] = lo
				}
			}
			return out, nil
		},
	}
}

// learnSeqPair learns λx: Pair(x, Pos(R0[x:], p)) from examples that bind
// x to a start position and output the span starting there, or with end
// λx: Pair(Pos(R0[:x], p), x) from examples that bind x to an end
// position and output the span ending there.
func (l *Learner) learnSeqPair(end bool) core.ScalarLearner {
	return func(ctx context.Context, exs []core.Example) []core.Program {
		var pexs []tokens.PosExample
		for _, ex := range exs {
			v, ok := ex.State.Lookup(X)
			x, isPos := v.(int)
			r0, err := inputOf(ex.State)
			if !ok || !isPos || err != nil {
				return nil
			}
			c := r0.Cache()
			lo, hi := r0.TextRange()
			_, ylo, yhi, span := spanOf(ex.Output)
			switch {
			case span && end && yhi == x && ylo >= lo:
				pexs = append(pexs, tokens.PosExample{S: c.Text()[lo:x], K: ylo - lo, C: c, Lo: lo})
			case span && !end && ylo == x && yhi <= hi:
				pexs = append(pexs, tokens.PosExample{S: c.Text()[x:hi], K: yhi - x, C: c, Lo: x})
			default:
				return nil
			}
		}
		attrs := l.Attrs(ctx, pexs)
		out := make([]core.Program, len(attrs))
		for i, p := range attrs {
			out[i] = seqPairProg{d: l.d, p: p, end: end}
		}
		return out
	}
}

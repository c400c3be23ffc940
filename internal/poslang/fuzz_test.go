package poslang

import (
	"math/rand"
	"testing"

	"flashextract/internal/core"
	"flashextract/internal/tokens"
)

// fakeSpan is a span of a document cached in c: a Region that is its own
// interval, as textlang.Region and weblang.SpanRegion are.
type fakeSpan struct {
	c      *tokens.Cache
	lo, hi int
}

func (r fakeSpan) Cache() *tokens.Cache      { return r.c }
func (r fakeSpan) TextRange() (lo, hi int)   { return r.lo, r.hi }
func (r fakeSpan) Sub(lo, hi int) core.Value { return fakeSpan{r.c, lo, hi} }
func (r fakeSpan) Interval() (any, int, int) { return r.c, r.lo, r.hi }

// fakeNode is a node of a document cached in c: a Region whose
// sub-ranges are spans and which is not an interval, as
// weblang.NodeRegion is not.
type fakeNode struct {
	c      *tokens.Cache
	lo, hi int
}

func (r fakeNode) Cache() *tokens.Cache      { return r.c }
func (r fakeNode) TextRange() (lo, hi int)   { return r.lo, r.hi }
func (r fakeNode) Sub(lo, hi int) core.Value { return fakeSpan{r.c, lo, hi} }

// byteReader hands out fuzzer bytes, then zeros once they run out.
type byteReader struct{ b []byte }

func (r *byteReader) next() int {
	if len(r.b) == 0 {
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return int(v)
}

// fuzzToks are the tokens fuzzed regexes draw from.
func fuzzToks() []tokens.Token {
	return append(append([]tokens.Token(nil), tokens.Standard...), tokens.Literal("a a"), tokens.Literal("::"))
}

// fuzzAttr draws an AbsPos, or a RegPos of up to two tokens a side, with
// a small K of either sign.
func fuzzAttr(r *byteReader) tokens.Attr {
	toks := fuzzToks()
	if r.next()%3 == 0 {
		return tokens.AbsPos{K: r.next()%9 - 4}
	}
	regex := func() tokens.Regex {
		var re tokens.Regex
		for i := r.next() % 3; i > 0; i-- {
			re = append(re, toks[r.next()%len(toks)])
		}
		return re
	}
	return tokens.RegPos{RR: tokens.RegexPair{Left: regex(), Right: regex()}, K: r.next()%5 - 2}
}

// FuzzPosBodies checks the position bodies against the reference
// tokens.Attr.Eval on each region's string. On a fuzzed text it draws two
// attributes and a sequence of sub-ranges, with now and then a value of
// the wrong kind, and runs, in both dialects, λx: Pair(Pos(x, p1),
// Pos(x, p2)) and (in Ltext) λx: Pos(x, p) over them three ways: Exec on
// each element, the sweep on a state without a memo, and the sweep on a
// state whose memo already holds the columns, stored by the pair with p1
// and p2 swapped. Each must give the reference's values up to the first
// failing element and that element's error, p1's before p2's, and
// ErrNoMatch where p1's position is past p2's. Pair(Pos(R0, p1), Pos(R0,
// p2)) runs with R0 bound to each element.
func FuzzPosBodies(f *testing.F) {
	for seed := int64(1); seed <= 48; seed++ {
		b := make([]byte, 96)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		r := &byteReader{b}
		const alphabet = "aaaabZZ0099   \n,.::-"
		text := make([]byte, r.next()%64)
		for i := range text {
			text[i] = alphabet[r.next()%len(alphabet)]
		}
		c := tokens.NewCache(string(text))
		p1, p2 := fuzzAttr(r), fuzzAttr(r)
		var ranges [][2]int
		for i := 1 + r.next()%8; i > 0; i-- {
			lo := r.next() % (len(text) + 1)
			ranges = append(ranges, [2]int{lo, lo + r.next()%(len(text)-lo+1)})
		}
		bad := -1
		if r.next()%4 == 0 {
			bad = r.next() % len(ranges)
		}
		notRegion := r.next()%2 == 0
		for _, d := range []Dialect{Text, Web} {
			var xs []core.Value
			for i, rg := range ranges {
				// Ltext's bodies take spans and Lweb's nodes; bad is of
				// the other kind, or no region.
				node := (d == Web) != (i == bad)
				switch {
				case i == bad && notRegion:
					xs = append(xs, 7)
				case node:
					xs = append(xs, fakeNode{c, rg[0], rg[1]})
				default:
					xs = append(xs, fakeSpan{c, rg[0], rg[1]})
				}
			}
			checkBodies(t, d, c, p1, p2, xs)
		}
	})
}

// checkBodies runs the bodies of d over xs as FuzzPosBodies describes.
func checkBodies(t *testing.T, d Dialect, c *tokens.Cache, p1, p2 tokens.Attr, xs []core.Value) {
	t.Helper()
	text := c.Text()
	// pos and pair are the reference Pos(r, p) and Pair(Pos(r, p1),
	// Pos(r, p2)) on r's range.
	pos := func(p tokens.Attr, r Region) (int, error) {
		lo, hi := r.TextRange()
		k, err := p.Eval(text[lo:hi])
		return lo + k, err
	}
	pair := func(r Region) (core.Value, error) {
		a, err := pos(p1, r)
		if err != nil {
			return nil, err
		}
		b, err := pos(p2, r)
		if err != nil {
			return nil, err
		}
		if a > b {
			return nil, core.ErrNoMatch
		}
		return fakeSpan{c, a, b}, nil
	}
	type body struct {
		p   core.Program
		ref func(Region) (core.Value, error)
	}
	bodies := []body{{d.XPair(p1, p2), pair}}
	if d == Text {
		for _, p := range []tokens.Attr{p1, p2} {
			bodies = append(bodies, body{d.XPos(p), func(r Region) (core.Value, error) {
				k, err := pos(p, r)
				if err != nil {
					return nil, err
				}
				return k, nil
			}})
		}
	}
	whole := fakeNode{c, 0, len(text)}
	for _, b := range bodies {
		var want []core.Value
		var wantErr error
		for _, x := range xs {
			r, err := d.xRegion(x)
			var v core.Value
			if err == nil {
				v, err = b.ref(r)
			}
			got, gotErr := b.p.Exec(core.NewState(whole).Bind(X, x))
			if !sameResult(got, gotErr, v, err) {
				t.Fatalf("%s on %v: Exec gives %v, %v, reference %v, %v", b.p, x, got, gotErr, v, err)
			}
			if wantErr == nil {
				if wantErr = err; err == nil {
					want = append(want, v)
				}
			}
		}
		memo := core.NewState(whole).WithExecMemo()
		d.XPair(p2, p1).(core.SeqBody).ExecSeq(memo, X, xs)
		for _, st := range []core.State{core.NewState(whole), memo} {
			got, err := b.p.(core.SeqBody).ExecSeq(st, X, xs)
			if !sameErr(err, wantErr) || len(got) != len(want) {
				t.Fatalf("%s over %v: sweep gives %v, %v, reference %v, %v", b.p, xs, got, err, want, wantErr)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s over %v: sweep gives %v at %d, reference %v", b.p, xs, got[i], i, want[i])
				}
			}
		}
	}
	// N2 reads R0 as any region.
	for _, x := range xs {
		if r, ok := x.(Region); ok {
			v, err := pair(r)
			got, gotErr := d.RegionPair(p1, p2).Exec(core.NewState(x))
			if !sameResult(got, gotErr, v, err) {
				t.Fatalf("N2 on %v: Exec gives %v, %v, reference %v, %v", x, got, gotErr, v, err)
			}
		}
	}
}

// sameErr reports whether two errors are both nil or have the same text.
func sameErr(a, b error) bool {
	return (a == nil) == (b == nil) && (a == nil || a.Error() == b.Error())
}

// sameResult reports whether two results have equal values or the same
// error text.
func sameResult(v1 core.Value, e1 error, v2 core.Value, e2 error) bool {
	return sameErr(e1, e2) && (e1 != nil || v1 == v2)
}

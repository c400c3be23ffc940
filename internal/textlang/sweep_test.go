package textlang

import (
	"context"
	"math/rand"
	"testing"

	"flashextract/internal/core"
	"flashextract/internal/poslang"
	"flashextract/internal/region"
	"flashextract/internal/tokens"
)

// perElement hides a λ-body's ExecSeq, so Map and FilterBool evaluate it
// element by element, each element through Exec on its own binding.
type perElement struct{ core.Program }

// checkSweep runs a Map (or, with filter, a FilterBool) of body over xs,
// binding v, once with the body's ExecSeq and once with it hidden, and
// fails unless both return the same values or the same error string.
func checkSweep(t *testing.T, st core.State, body core.Program, v string, xs []core.Value, filter bool) {
	t.Helper()
	seq := core.Func{Name: "xs", F: func(core.State) (core.Value, error) { return xs, nil }}
	run := func(b core.Program) (core.Value, error) {
		if filter {
			return (&core.FilterBoolProgram{Var: v, B: b, S: seq}).Exec(st)
		}
		return (&core.MapProgram{Name: "Map", Var: v, F: b, S: seq}).Exec(st)
	}
	got, gotErr := run(body)
	want, wantErr := run(perElement{body})
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%s over %d elements: sweep error %v, per-element error %v", body, len(xs), gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	gs, ws := got.([]core.Value), want.([]core.Value)
	if len(gs) != len(ws) {
		t.Fatalf("%s over %d elements: sweep %v, per-element %v", body, len(xs), gs, ws)
	}
	for i := range gs {
		if gs[i] != ws[i] {
			t.Fatalf("%s over %d elements: value %d is %v by sweep, %v per element", body, len(xs), i, gs[i], ws[i])
		}
	}
}

// CheckSweep exports checkSweep to the corpus differential in package
// textlang_test.
var CheckSweep = checkSweep

// orders returns xs ascending, descending, shuffled, and with a repeat.
func orders(rng *rand.Rand, xs []core.Value) [][]core.Value {
	desc := make([]core.Value, len(xs))
	for i, x := range xs {
		desc[len(xs)-1-i] = x
	}
	shuffled := append([]core.Value(nil), xs...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	repeat := append(append([]core.Value(nil), xs...), xs[:len(xs)/2]...)
	return [][]core.Value{xs, desc, shuffled, repeat}
}

// TestLinePairSweepReportsFirstFailure pins the error a LinesMap body
// reports: that of its first failing line, and on that line p1's before
// p2's, or ErrNoMatch on a line where p1's position is past p2's. Each
// case runs with and without an exec memo; with one, the body reads the
// columns a first run over the same lines stored, with p1 and p2 swapped.
func TestLinePairSweepReportsFirstFailure(t *testing.T) {
	d := NewDocument("x 1 2\nx 3\nx\n")
	whole := d.WholeRegion().(Region)
	var l []core.Value
	for _, line := range linesIn(whole) {
		l = append(l, line)
	}
	firstStart := tokens.RegPos{RR: tokens.RegexPair{Right: tokens.Regex{tokens.Number}}, K: 1}
	firstEnd := tokens.RegPos{RR: tokens.RegexPair{Left: tokens.Regex{tokens.Number}}, K: 1}
	lastStart := tokens.RegPos{RR: tokens.RegexPair{Right: tokens.Regex{tokens.Number}}, K: -1}
	secondEnd := tokens.RegPos{RR: tokens.RegexPair{Left: tokens.Regex{tokens.Number}}, K: 2}
	_, secondEndErr := secondEnd.Eval("x 3")
	_, firstStartErr := firstStart.Eval("x")
	cases := []struct {
		name   string
		p1, p2 tokens.Attr
		lines  []core.Value
		values int
		err    error
	}{
		// p2 fails on "x 3", p1 only on "x".
		{"p2 fails first", firstStart, secondEnd, l, 1, secondEndErr},
		// Both fail on "x", after "x 3" holds.
		{"both fail on one line", firstStart, secondEnd, []core.Value{l[2], l[1]}, 0, firstStartErr},
		{"both fail after a line", firstStart, firstEnd, []core.Value{l[1], l[2], l[0]}, 1, firstStartErr},
		// On "x 1 2" the last number starts past the first one's end;
		// both fail on "x" later.
		{"p1 past p2 first", lastStart, firstEnd, []core.Value{l[1], l[0], l[2]}, 1, core.ErrNoMatch},
	}
	for _, tc := range cases {
		for _, memo := range []bool{false, true} {
			st := core.NewState(whole)
			if memo {
				st = st.WithExecMemo()
			}
			lines := core.Func{Name: "lines", F: func(core.State) (core.Value, error) { return tc.lines, nil }}
			if memo {
				swapped := poslang.Text.XPair(tc.p2, tc.p1)
				(&core.MapProgram{Name: "LinesMap", Var: poslang.X, F: swapped, S: lines}).Exec(st)
			}
			body := poslang.Text.XPair(tc.p1, tc.p2)
			got, err := body.(core.SeqBody).ExecSeq(st, poslang.X, tc.lines)
			if err == nil || err.Error() != tc.err.Error() || len(got) != tc.values {
				t.Errorf("%s (memo %v): %d values and error %v, want %d and %v", tc.name, memo, len(got), err, tc.values, tc.err)
			}
			checkSweep(t, st, body, poslang.X, tc.lines, false)
		}
	}
}

// LearnLinePairs returns the line pairs the learner of LinesMap's body
// learns from the regions ys of whole, each with x bound to the line that
// holds it, as LinesMap's decomposition gives them; nil when a region
// spans lines.
func LearnLinePairs(whole Region, ys []Region) []core.Program {
	lines := linesIn(whole)
	st := core.NewState(whole)
	var exs []core.Example
	var boundary []region.Region
	for _, y := range ys {
		line, ok := lineContaining(lines, y.Start, y.End)
		if !ok {
			return nil
		}
		exs = append(exs, core.Example{State: st.Bind(poslang.X, line), Output: y})
		boundary = append(boundary, y)
	}
	return newLearnCtx(whole.Doc, boundary).pos.XPair(context.Background(), exs)
}

// TestSweepsAnyOrder runs every λ-body form over lines or positions in
// ascending, descending, shuffled and repeating order, with values of the
// wrong type and ranges past R0, with its ExecSeq and element by element.
func TestSweepsAnyOrder(t *testing.T) {
	d := NewDocument("id 7: a, b\n\nid 12: c\nnote d, e, f\nid 3: g\n  tail 9")
	whole := d.WholeRegion().(Region)
	rng := rand.New(rand.NewSource(3))
	var lines, subs, starts, ends []core.Value
	for _, l := range linesIn(whole) {
		lines = append(lines, l)
		starts, ends = append(starts, l.Start), append(ends, l.End)
		if l.End > l.Start {
			subs = append(subs, Region{Doc: d, Start: l.Start + 1, End: l.End})
		}
	}
	ends = append(ends, -1, len(d.Text)+1)
	num := tokens.RegPos{RR: tokens.RegexPair{Right: tokens.Regex{tokens.Number}}, K: 1}
	lastComma := tokens.RegPos{RR: tokens.RegexPair{Left: tokens.Regex{tokens.Comma, tokens.Space}}, K: -1}
	lineEnd := tokens.RegPos{RR: tokens.RegexPair{Left: tokens.Regex{tokens.Lower}}, K: -1}
	lineBodies := []core.Program{
		poslang.Text.XPair(num, tokens.AbsPos{K: -1}),
		poslang.Text.XPair(lastComma, num),
		poslang.Text.XPos(lastComma),
		poslang.Text.XPos(tokens.AbsPos{K: 3}),
	}
	posBodies := []core.Program{
		poslang.Text.StartPair(num),
		poslang.Text.StartPair(lineEnd),
		poslang.Text.EndPair(lastComma),
		poslang.Text.EndPair(tokens.RegPos{RR: tokens.RegexPair{Right: tokens.Regex{tokens.Lower}}, K: 2}),
	}
	var preds []core.Program
	for _, kind := range []predKind{predTrue, predStartsWith, predEndsWith, predContains,
		predPredStartsWith, predPredEndsWith, predPredContains,
		predSuccStartsWith, predSuccEndsWith, predSuccContains} {
		preds = append(preds,
			linePred{kind: kind, r: tokens.Regex{tokens.Lower}, k: 1},
			linePred{kind: kind, r: tokens.Regex{tokens.Comma}, k: 2})
	}
	st := core.NewState(whole)
	for _, xs := range orders(rng, lines) {
		for _, b := range lineBodies {
			checkSweep(t, st, b, poslang.X, xs, false)
			checkSweep(t, st, b, "y", xs, false)
		}
		for _, b := range preds {
			checkSweep(t, st, b, poslang.X, xs, true)
			checkSweep(t, st, b, poslang.X, append(append([]core.Value(nil), subs...), xs...), true)
		}
	}
	for _, xs := range append(orders(rng, starts), orders(rng, ends)...) {
		for _, b := range posBodies {
			checkSweep(t, st, b, poslang.X, xs, false)
		}
		for _, b := range []core.Program{lineBodies[0], preds[2]} {
			checkSweep(t, st, b, poslang.X, xs, false) // x is not a line
		}
	}
	// R0 that is not a text region fails the position bodies and makes the
	// neighbour predicates false, on the first element that reads it.
	bad := core.NewState(7)
	for _, b := range posBodies {
		checkSweep(t, bad, b, poslang.X, starts, false)
	}
	for _, b := range preds {
		checkSweep(t, bad, b, poslang.X, lines, true)
	}
}

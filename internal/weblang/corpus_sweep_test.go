package weblang_test

import (
	"math/rand"
	"sort"
	"testing"

	"flashextract/internal/bench"
	"flashextract/internal/bench/corpus"
	"flashextract/internal/core"
	"flashextract/internal/htmldom"
	"flashextract/internal/weblang"
)

// TestSweepMatchesPerElementOnWebCorpus checks the sweeps of Lweb's
// StartSeqMap and EndSeqMap bodies on the final programs the ⊥-relative
// replay (bench.Run) learns for every field of every web corpus task.
// Each body must implement core.SeqBody. It runs over the start and end
// of every element's text and two positions off the page, in ascending,
// descending and shuffled order, under the page, under the element that
// holds the field's first instance, under that instance and under an R0
// that is no region, once with its ExecSeq and once element by element,
// and must give the same values or the same first error either way.
func TestSweepMatchesPerElementOnWebCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	bodies := 0
	for _, task := range corpus.Web() {
		doc, ok := task.Doc.(*weblang.Document)
		if !ok {
			t.Fatalf("%s: document is %T", task.Name, task.Doc)
		}
		pos := []core.Value{-1, len(doc.Text) + 1}
		var walk func(n *htmldom.Node)
		walk = func(n *htmldom.Node) {
			if n.Type == htmldom.ElementNode {
				pos = append(pos, n.TextStart, n.TextEnd)
			}
			for _, c := range n.Children {
				walk(c)
			}
		}
		walk(doc.Root)
		for _, fr := range bench.Run(task).Fields {
			if fr.Program == nil {
				t.Fatalf("%s %s: %s", task.Name, fr.Color, fr.FailReason)
			}
			first := task.Golden[fr.Color][0]
			inputs := []core.Value{doc.WholeRegion(), first, 7}
			if whole, err := doc.Span(first, first); err == nil {
				inputs = append(inputs, whole)
			}
			forMapBodies(fr.Program, func(body core.Program, v, name string) {
				if name != "StartSeqMap" && name != "EndSeqMap" {
					return
				}
				if _, ok := body.(core.SeqBody); !ok {
					t.Fatalf("%s body %s has no ExecSeq", name, body)
				}
				bodies++
				for _, r0 := range inputs {
					for _, xs := range orders(rng, pos) {
						checkSweep(t, core.NewState(r0), body, v, xs)
					}
				}
			})
		}
	}
	if bodies == 0 {
		t.Fatal("the replay learned no StartSeqMap or EndSeqMap body")
	}
}

// orders returns xs ascending, descending and shuffled.
func orders(rng *rand.Rand, xs []core.Value) [][]core.Value {
	asc := append([]core.Value(nil), xs...)
	sort.Slice(asc, func(i, j int) bool { return asc[i].(int) < asc[j].(int) })
	desc := make([]core.Value, len(asc))
	for i, x := range asc {
		desc[len(asc)-1-i] = x
	}
	shuffled := append([]core.Value(nil), asc...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	return [][]core.Value{asc, desc, shuffled}
}

// checkSweep runs a Map of body over xs, binding v, once with the body's
// ExecSeq and once with it hidden, so that the Map evaluates it element
// by element, and fails unless both return the same values or the same
// error string.
func checkSweep(t *testing.T, st core.State, body core.Program, v string, xs []core.Value) {
	t.Helper()
	seq := core.Func{Name: "xs", F: func(core.State) (core.Value, error) { return xs, nil }}
	run := func(f core.Program) (core.Value, error) {
		return (&core.MapProgram{Name: "Map", Var: v, F: f, S: seq}).Exec(st)
	}
	got, gotErr := run(body)
	want, wantErr := run(struct{ core.Program }{body})
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%s on %v over %d positions: sweep error %v, per-element error %v", body, st.Input(), len(xs), gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	gs, ws := got.([]core.Value), want.([]core.Value)
	if len(gs) != len(ws) {
		t.Fatalf("%s on %v: sweep %v, per-element %v", body, st.Input(), gs, ws)
	}
	for i := range gs {
		if gs[i] != ws[i] {
			t.Fatalf("%s on %v: value %d is %v by sweep, %v per element", body, st.Input(), i, gs[i], ws[i])
		}
	}
}

// forMapBodies calls f on the body of every Map inside p, with the
// variable it binds and the operator's name.
func forMapBodies(p core.Program, f func(body core.Program, v, name string)) {
	switch q := p.(type) {
	case *core.MergeProgram:
		for _, a := range q.Args {
			forMapBodies(a, f)
		}
	case *core.MapProgram:
		f(q.F, q.Var, q.Name)
		forMapBodies(q.S, f)
	case *core.FilterIntProgram:
		forMapBodies(q.S, f)
	}
}

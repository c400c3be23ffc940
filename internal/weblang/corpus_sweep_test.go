package weblang_test

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"flashextract/internal/bench"
	"flashextract/internal/bench/corpus"
	"flashextract/internal/core"
	"flashextract/internal/engine"
	"flashextract/internal/htmldom"
	"flashextract/internal/region"
	"flashextract/internal/weblang"
)

// TestSweepMatchesPerElementOnWebCorpus checks the sweeps of Lweb's map
// bodies, on the final programs the ⊥-relative replay (bench.Run) learns
// for every field of every web corpus task and, for the SeqPairMap
// bodies, also on every program of the ranked lists ⊥-relative synthesis
// returns from each field's first 1, 2 and 3 golden instances. Each body
// must implement core.SeqBody, and must give the same values or the same
// first error with its ExecSeq as element by element.
//
// A StartSeqMap or EndSeqMap body runs over the start and end of every
// element's text and two positions off the page, in ascending, descending
// and shuffled order, under the page, under the element that holds the
// field's first instance, under that instance and under an R0 that is no
// region. A SeqPairMap body runs over every element node of the page
// followed by a span and a value that is no region, in ascending,
// descending and shuffled order, and over the nodes its own sequence
// selects, each on a state without an exec memo and on one whose memo
// already holds the columns its pair with p1 and p2 swapped stored there.
func TestSweepMatchesPerElementOnWebCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	seqMaps, pairs := 0, 0
	for _, task := range corpus.Web() {
		doc, ok := task.Doc.(*weblang.Document)
		if !ok {
			t.Fatalf("%s: document is %T", task.Name, task.Doc)
		}
		whole := doc.WholeRegion()
		pos := []core.Value{-1, len(doc.Text) + 1}
		var nodes []core.Value
		var walk func(n *htmldom.Node)
		walk = func(n *htmldom.Node) {
			if n.Type == htmldom.ElementNode {
				pos = append(pos, n.TextStart, n.TextEnd)
				nodes = append(nodes, doc.NodeOf(n))
			}
			for _, c := range n.Children {
				walk(c)
			}
		}
		walk(doc.Root)
		nodes = append(nodes, weblang.SpanRegion{Doc: doc, Start: 0, End: len(doc.Text) / 2}, 7)
		seen := map[string]bool{}
		checkPairs := func(p core.Program) {
			forMapBodies(p, func(m *core.MapProgram) {
				if m.Name != "SeqPairMap" || seen[m.F.String()] {
					return
				}
				seen[m.F.String()] = true
				pairs++
				sel, err := m.S.Exec(core.NewState(whole))
				if err != nil {
					t.Fatalf("%s: %s fails on the page: %v", task.Name, m.S, err)
				}
				for _, xs := range append(nodeOrders(rng, nodes), sel.([]core.Value)) {
					checkPairSweep(t, doc, whole, m.F, m.Var, xs)
				}
			})
		}
		for _, fr := range bench.Run(task).Fields {
			if fr.Program == nil {
				t.Fatalf("%s %s: %s", task.Name, fr.Color, fr.FailReason)
			}
			first := task.Golden[fr.Color][0]
			inputs := []core.Value{whole, first, 7}
			if container, err := doc.Span(first, first); err == nil {
				inputs = append(inputs, container)
			}
			forMapBodies(fr.Program, func(m *core.MapProgram) {
				if m.Name != "StartSeqMap" && m.Name != "EndSeqMap" {
					return
				}
				if _, ok := m.F.(core.SeqBody); !ok {
					t.Fatalf("%s body %s has no ExecSeq", m.Name, m.F)
				}
				seqMaps++
				for _, r0 := range inputs {
					for _, xs := range orders(rng, pos) {
						checkSweep(t, core.NewState(r0), m.F, m.Var, xs)
					}
				}
			})
			checkPairs(fr.Program)
		}
		for _, fi := range task.Schema.Fields() {
			golden := task.Golden[fi.Color()]
			for k := 1; k <= 3; k++ {
				for _, p := range doc.Language().SynthesizeSeqRegion(context.Background(),
					[]engine.SeqRegionExample{{Input: whole, Positive: golden[:min(k, len(golden))]}}) {
					checkPairs(p)
				}
			}
		}
	}
	if seqMaps == 0 || pairs == 0 {
		t.Fatalf("checked %d StartSeqMap or EndSeqMap bodies and %d SeqPairMap bodies, want some of each", seqMaps, pairs)
	}
	t.Logf("checked %d StartSeqMap or EndSeqMap bodies and %d SeqPairMap bodies", seqMaps, pairs)
}

// checkPairSweep runs checkSweep for the SeqPairMap body over the nodes
// xs under the page, once on a state without an exec memo and once on a
// state with one, after running over xs there the body with p1 and p2
// swapped, so that the body reads the columns it stored.
func checkPairSweep(t *testing.T, doc *weblang.Document, whole region.Region, body core.Program, v string, xs []core.Value) {
	t.Helper()
	if _, ok := body.(core.SeqBody); !ok {
		t.Fatalf("SeqPairMap body %s has no ExecSeq", body)
	}
	spec, err := core.Encode(body)
	if err != nil {
		t.Fatal(err)
	}
	spec.Attrs = map[string]string{"p1": spec.Attrs["p2"], "p2": spec.Attrs["p1"]}
	swapped, err := doc.Language().(engine.ProgramCodec).DecodeLeaf(spec)
	if err != nil {
		t.Fatal(err)
	}
	checkSweep(t, core.NewState(whole), body, v, xs)
	memo := core.NewState(whole).WithExecMemo()
	swapped.(core.SeqBody).ExecSeq(memo, v, xs)
	checkSweep(t, memo, body, v, xs)
}

// nodeOrders returns the nodes xs, given in document order, ascending,
// descending and shuffled.
func nodeOrders(rng *rand.Rand, xs []core.Value) [][]core.Value {
	desc := make([]core.Value, len(xs))
	for i, x := range xs {
		desc[len(xs)-1-i] = x
	}
	shuffled := append([]core.Value(nil), xs...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	return [][]core.Value{xs, desc, shuffled}
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

// forMapBodies calls f on every Map inside p.
func forMapBodies(p core.Program, f func(m *core.MapProgram)) {
	switch q := p.(type) {
	case *core.MergeProgram:
		for _, a := range q.Args {
			forMapBodies(a, f)
		}
	case *core.MapProgram:
		f(q)
		forMapBodies(q.S, f)
	case *core.FilterIntProgram:
		forMapBodies(q.S, f)
	}
}

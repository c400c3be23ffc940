package textlang_test

import (
	"context"
	"testing"

	"flashextract/internal/bench/corpus"
	"flashextract/internal/core"
	"flashextract/internal/engine"
	"flashextract/internal/region"
	"flashextract/internal/textlang"
)

// hideSweeps rebuilds a program with every Map and FilterBool body
// evaluated element by element.
func hideSweeps(p core.Program) core.Program {
	switch q := p.(type) {
	case *core.MergeProgram:
		args := make([]core.Program, len(q.Args))
		for i, a := range q.Args {
			args[i] = hideSweeps(a)
		}
		return &core.MergeProgram{Args: args, Less: q.Less}
	case *core.MapProgram:
		return &core.MapProgram{Name: q.Name, Var: q.Var, F: struct{ core.Program }{q.F}, S: hideSweeps(q.S)}
	case *core.FilterBoolProgram:
		return &core.FilterBoolProgram{Var: q.Var, B: struct{ core.Program }{q.B}, S: hideSweeps(q.S)}
	case *core.FilterIntProgram:
		return &core.FilterIntProgram{Init: q.Init, Iter: q.Iter, S: hideSweeps(q.S)}
	}
	return p
}

// TestSweepMatchesPerElementOnCorpus checks the λ-body sweeps on the
// programs learned from two golden instances of every field of every text
// corpus task and of hadoop-xl. Each program must extract the same
// regions with its bodies' ExecSeq as element by element. Each Map and
// FilterBool body must also give the same values or the same first error
// either way when run over every line of the document (LinesMap and
// FilterBool bodies) or every line start and end (StartSeqMap and
// EndSeqMap bodies), where most of them fail somewhere. Last, the whole
// line-pair list of the field's LinesMap learn runs over every line and
// over the golden instances' lines through one state with an exec memo,
// so that later pairs read the columns earlier pairs stored, and must
// give what each pair's Exec gives line by line.
func TestSweepMatchesPerElementOnCorpus(t *testing.T) {
	tasks := corpus.Text()
	if !testing.Short() {
		tasks = append(tasks, corpus.LargestText())
	}
	for _, task := range tasks {
		doc, ok := task.Doc.(*textlang.Document)
		if !ok {
			t.Fatalf("%s: document is %T", task.Name, task.Doc)
		}
		whole := doc.WholeRegion()
		st := core.NewState(whole)
		var lines, bounds []core.Value
		for lo := 0; lo <= len(doc.Text); {
			hi := lo
			for hi < len(doc.Text) && doc.Text[hi] != '\n' {
				hi++
			}
			lines = append(lines, textlang.Region{Doc: doc, Start: lo, End: hi})
			bounds = append(bounds, lo, hi)
			lo = hi + 1
		}
		seen := map[string]bool{}
		for _, fi := range task.Schema.Fields() {
			golden := task.Golden[fi.Color()]
			if len(golden) == 0 {
				continue
			}
			pos := append([]region.Region(nil), golden[:min(2, len(golden))]...)
			checkLinePairs(t, doc, lines, golden, pos)
			progs := doc.Language().SynthesizeSeqRegion(context.Background(),
				[]engine.SeqRegionExample{{Input: whole, Positive: pos}})
			for _, p := range progs {
				checkProgram(t, st, p)
				forBodies(p, func(body core.Program, v string, name string) {
					if seen[name+body.String()] {
						return
					}
					seen[name+body.String()] = true
					switch name {
					case "LinesMap":
						textlang.CheckSweep(t, st, body, v, lines, false)
					case "FilterBool":
						textlang.CheckSweep(t, st, body, v, lines, true)
					default:
						textlang.CheckSweep(t, st, body, v, bounds, false)
					}
				})
			}
		}
	}
}

// checkLinePairs learns the line pairs of the regions pos, as the LinesMap
// rule does, and runs each of them over every line of doc and over the
// lines that hold golden instances, all through one state with an exec
// memo, against the pair's Exec on each line.
func checkLinePairs(t *testing.T, doc *textlang.Document, lines []core.Value, golden, pos []region.Region) {
	t.Helper()
	whole := doc.WholeRegion().(textlang.Region)
	var ys []textlang.Region
	for _, r := range pos {
		ys = append(ys, r.(textlang.Region))
	}
	pairs := textlang.LearnLinePairs(whole, ys)
	if len(pairs) == 0 {
		return
	}
	var held []core.Value
	for _, line := range lines {
		l := line.(textlang.Region)
		for _, g := range golden {
			if l.Contains(g) {
				held = append(held, line)
				break
			}
		}
	}
	st := core.NewState(whole).WithExecMemo()
	for _, xs := range [][]core.Value{lines, held} {
		for _, p := range pairs {
			textlang.CheckSweep(t, st, p, "x", xs, false)
		}
	}
}

// checkProgram runs p and its element-by-element rebuild and compares the
// extracted regions or the error strings.
func checkProgram(t *testing.T, st core.State, p core.Program) {
	t.Helper()
	got, gotErr := p.Exec(st)
	want, wantErr := hideSweeps(p).Exec(st)
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%s: error %v with sweeps, %v element by element", p, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	gs, ws := got.([]core.Value), want.([]core.Value)
	if len(gs) != len(ws) {
		t.Fatalf("%s: %d values with sweeps, %d element by element", p, len(gs), len(ws))
	}
	for i := range gs {
		if gs[i] != ws[i] {
			t.Fatalf("%s: value %d is %v with sweeps, %v element by element", p, i, gs[i], ws[i])
		}
	}
}

// forBodies calls f on every Map and FilterBool body inside p, with the
// variable it binds and the operator's name.
func forBodies(p core.Program, f func(body core.Program, v, name string)) {
	switch q := p.(type) {
	case *core.MergeProgram:
		for _, a := range q.Args {
			forBodies(a, f)
		}
	case *core.MapProgram:
		f(q.F, q.Var, q.Name)
		forBodies(q.S, f)
	case *core.FilterBoolProgram:
		f(q.B, q.Var, "FilterBool")
		forBodies(q.S, f)
	case *core.FilterIntProgram:
		forBodies(q.S, f)
	}
}

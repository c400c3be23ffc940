// Benchmarks regenerating the paper's evaluation (§6): one benchmark per
// figure and domain (Figs. 10 and 11 share the simulation, so each domain
// benchmark produces both), the headline aggregate, per-operator
// micro-benchmarks, and ablations for the design choices called out in
// DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
package flashextract_test

import (
	"context"
	"testing"

	"flashextract/internal/bench"
	"flashextract/internal/bench/corpus"
	"flashextract/internal/core"
	"flashextract/internal/engine"
	"flashextract/internal/htmldom"
	"flashextract/internal/region"
	"flashextract/internal/textlang"
	"flashextract/internal/tokens"
	"flashextract/internal/xpath"
)

// simulate replays the full §6 interaction over a task set and reports
// the headline metrics alongside Go's own measurements.
func simulate(b *testing.B, tasks []*bench.Task) {
	b.Helper()
	var summary bench.Summary
	for i := 0; i < b.N; i++ {
		summary = bench.Summarize(bench.RunAll(tasks))
	}
	if summary.Failures > 0 {
		b.Fatalf("%d fields failed", summary.Failures)
	}
	b.ReportMetric(summary.AvgExamples, "examples/field")
	b.ReportMetric(summary.AvgLastSynth.Seconds()*1000, "ms-synth/field")
}

// BenchmarkFig10And11Text regenerates the text bars of Figs. 10 and 11.
func BenchmarkFig10And11Text(b *testing.B) { simulate(b, corpus.Text()) }

// BenchmarkFig10And11Web regenerates the webpage bars of Figs. 10 and 11.
func BenchmarkFig10And11Web(b *testing.B) { simulate(b, corpus.Web()) }

// BenchmarkFig10And11Sheets regenerates the spreadsheet bars of Figs. 10
// and 11.
func BenchmarkFig10And11Sheets(b *testing.B) { simulate(b, corpus.Sheets()) }

// BenchmarkEvaluation regenerates the full 75-document evaluation behind
// the paper's headline numbers (2.36 examples, 0.84 s per field).
func BenchmarkEvaluation(b *testing.B) { simulate(b, corpus.All()) }

// ---- ablations ----

// BenchmarkAblationNoCleanUp disables subsumption pruning: candidate
// lists stay larger, showing what CleanUp buys (the paper's §4.3
// optimization).
func BenchmarkAblationNoCleanUp(b *testing.B) {
	core.DisableCleanUp = true
	defer func() { core.DisableCleanUp = false }()
	simulate(b, corpus.Text())
}

// BenchmarkAblationGreedyMerge forces the greedy Merge partitioning
// instead of the exhaustive minimal-partition search.
func BenchmarkAblationGreedyMerge(b *testing.B) {
	old := core.MergeExhaustiveLimit
	core.MergeExhaustiveLimit = 0
	defer func() { core.MergeExhaustiveLimit = old }()
	simulate(b, corpus.Text())
}

// ---- per-operator micro-benchmarks ----

// BenchmarkSynthesizeTextLines measures one sequence-synthesis call on
// the Ex. 1 scenario (whole analyte lines from two examples).
func BenchmarkSynthesizeTextLines(b *testing.B) {
	task := corpus.ByName("accounts")
	doc := task.Doc
	golden := task.Golden["rec"]
	exs := []engine.SeqRegionExample{{
		Input:    doc.WholeRegion(),
		Positive: []region.Region{golden[0], golden[1]},
	}}
	lang := doc.Language()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := lang.SynthesizeSeqRegion(context.Background(), exs); len(got) == 0 {
			b.Fatal("synthesis failed")
		}
	}
}

// BenchmarkSynthesizeWebNodes measures one node-sequence synthesis call
// (wrapper induction plus framework overhead).
func BenchmarkSynthesizeWebNodes(b *testing.B) {
	task := corpus.ByName("amazon")
	doc := task.Doc
	golden := task.Golden["prod"]
	exs := []engine.SeqRegionExample{{
		Input:    doc.WholeRegion(),
		Positive: []region.Region{golden[0], golden[1]},
	}}
	lang := doc.Language()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := lang.SynthesizeSeqRegion(context.Background(), exs); len(got) == 0 {
			b.Fatal("synthesis failed")
		}
	}
}

// BenchmarkSynthesizeSheetCells measures one cell-sequence synthesis call
// on a department workbook.
func BenchmarkSynthesizeSheetCells(b *testing.B) {
	task := corpus.ByName("Funded - F")
	doc := task.Doc
	golden := task.Golden["amt"]
	exs := []engine.SeqRegionExample{{
		Input:    doc.WholeRegion(),
		Positive: []region.Region{golden[0], golden[1]},
	}}
	lang := doc.Language()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := lang.SynthesizeSeqRegion(context.Background(), exs); len(got) == 0 {
			b.Fatal("synthesis failed")
		}
	}
}

// BenchmarkLearnPositionAttrs measures FlashFill-style position attribute
// learning, the inner loop of the text DSL.
func BenchmarkLearnPositionAttrs(b *testing.B) {
	exs := []tokens.PosExample{
		{S: `ICP,""Be"",9,0.070073`, K: 4},
		{S: `ICP,""Sc"",45,0.042397`, K: 4},
	}
	for i := 0; i < b.N; i++ {
		if got := tokens.LearnAttrs(exs, tokens.Standard); len(got) == 0 {
			b.Fatal("no attributes")
		}
	}
}

// BenchmarkLearnStartAttrLargeText measures position-attribute learning as
// textlang's StartSeqMap rule runs it on the largest text document
// (hadoop-xl): each of two timestamp examples ends at a position of the
// document suffix that starts where the example does. The examples name
// those suffixes as ranges of the document's evaluation cache, so every
// iteration after the first reads its cached whole-document token
// boundaries.
func BenchmarkLearnStartAttrLargeText(b *testing.B) {
	task := corpus.ByName("hadoop-xl")
	doc := task.Doc.(*textlang.Document)
	var exs, bounds []tokens.PosExample
	for _, r := range task.Golden["ts"][:2] {
		y := r.(textlang.Region)
		exs = append(exs, tokens.PosExample{S: doc.Text[y.Start:], K: y.End - y.Start, C: doc.EvalCache(), Lo: y.Start})
		bounds = append(bounds, tokens.PosExample{S: doc.Text, K: y.Start}, tokens.PosExample{S: doc.Text, K: y.End})
	}
	// The pool textlang learns with: the standard tokens plus the literals
	// its discovery parameters promote around the examples.
	pool := append(append([]tokens.Token(nil), tokens.Standard...),
		tokens.DiscoverDynamicTokens(doc.Text, bounds, 6, 2, 24)...)
	b.SetBytes(int64(len(exs[0].S)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := tokens.LearnAttrs(exs, pool); len(got) == 0 {
			b.Fatal("no attributes")
		}
	}
}

// BenchmarkPosSeq measures regex-pair position scanning over a document.
func BenchmarkPosSeq(b *testing.B) {
	task := corpus.ByName("hadoop")
	text := task.Doc.(*textlang.Document).Text
	rr := tokens.RegexPair{Left: tokens.Regex{tokens.Number}, Right: tokens.Regex{tokens.Colon}}
	b.SetBytes(int64(len(text)))
	for i := 0; i < b.N; i++ {
		if got := rr.Positions(text); len(got) == 0 {
			b.Fatal("no positions")
		}
	}
}

// BenchmarkHTMLParse measures the DOM substrate on a benchmark page.
func BenchmarkHTMLParse(b *testing.B) {
	page := `<html><body><div class="list">` +
		`<div class="p"><span class="n">Widget</span><span class="v">$9.99</span></div>` +
		`<div class="p"><span class="n">Gadget</span><span class="v">$19.50</span></div>` +
		`</div></body></html>`
	b.SetBytes(int64(len(page)))
	for i := 0; i < b.N; i++ {
		if _, err := htmldom.Parse(page); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkXPathSelect measures path evaluation over a parsed page.
func BenchmarkXPathSelect(b *testing.B) {
	doc := htmldom.MustParse(`<html><body><div class="list">` +
		`<div class="p"><span class="n">A</span></div>` +
		`<div class="p"><span class="n">B</span></div>` +
		`<div class="p"><span class="n">C</span></div>` +
		`</div></body></html>`)
	p, err := xpath.Parse(`/html/body/div/div[@class='p']/span[@class='n']`)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if got := p.Select(doc); len(got) != 3 {
			b.Fatal("selection failed")
		}
	}
}

// BenchmarkSchemaProgramRun measures executing an already-learned schema
// program on a fresh document (the transfer workflow of §2).
func BenchmarkSchemaProgramRun(b *testing.B) {
	task := corpus.ByName("users")
	doc := task.Doc
	sch := task.Schema
	s := engine.NewSession(doc, sch)
	for _, fi := range sch.Fields() {
		golden := task.Golden[fi.Color()]
		for _, r := range golden[:2] {
			if err := s.AddPositive(fi.Color(), r); err != nil {
				b.Fatal(err)
			}
		}
		if _, _, err := s.Learn(fi.Color()); err != nil {
			b.Fatal(err)
		}
		if err := s.Commit(fi.Color()); err != nil {
			b.Fatal(err)
		}
	}
	q, err := s.Program()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := q.Run(doc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTopDownWorkflow measures the recommended §3 top-down ordering
// (each field learned relative to its materialized ancestor) against the
// ⊥-relative scenario of BenchmarkEvaluation.
func BenchmarkTopDownWorkflow(b *testing.B) {
	tasks := corpus.All()
	var summary bench.Summary
	for i := 0; i < b.N; i++ {
		summary = bench.Summarize(bench.RunAllTopDown(tasks))
	}
	if summary.Failures > 0 {
		b.Fatalf("%d fields failed", summary.Failures)
	}
	b.ReportMetric(summary.AvgExamples, "examples/field")
	b.ReportMetric(summary.AvgLastSynth.Seconds()*1000, "ms-synth/field")
}

// BenchmarkLargeDocumentSynthesis characterizes scaling: one synthesis
// call (two examples) over a ~100 KB log file. Position-sequence learning
// scans the document per candidate regex pair, so this is the text DSL's
// worst case.
func BenchmarkLargeDocumentSynthesis(b *testing.B) {
	var sb []byte
	var firstStart, firstEnd, secondStart, secondEnd int
	for i := 0; i < 2000; i++ {
		line := []byte("2013-02-11 10:02:11 dn.storage INFO: block pool heartbeat sent\n")
		if i == 0 {
			firstStart = len(sb)
			firstEnd = firstStart + len("2013-02-11 10:02:11")
		}
		if i == 1 {
			secondStart = len(sb)
			secondEnd = secondStart + len("2013-02-11 10:02:11")
		}
		sb = append(sb, line...)
	}
	doc := textlang.NewDocument(string(sb))
	exs := []engine.SeqRegionExample{{
		Input: doc.WholeRegion(),
		Positive: []region.Region{
			doc.Region(firstStart, firstEnd),
			doc.Region(secondStart, secondEnd),
		},
	}}
	lang := doc.Language()
	b.SetBytes(int64(len(sb)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		progs := lang.SynthesizeSeqRegion(context.Background(), exs)
		if len(progs) == 0 {
			b.Fatal("synthesis failed")
		}
	}
}

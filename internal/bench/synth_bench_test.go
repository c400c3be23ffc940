package bench_test

import (
	"testing"

	"flashextract/internal/bench"
	"flashextract/internal/bench/corpus"
	"flashextract/internal/engine"
	"flashextract/internal/region"
)

// synthesizeTaskFields runs the Algorithm 2 driver — learning plus the
// execute-and-check candidate validation loop — for every field of a task,
// ⊥-relative, from two golden examples. This is the end-to-end path behind
// every interactive refinement, and the target of the evaluation-cache
// optimizations.
func synthesizeTaskFields(b *testing.B, task *bench.Task) {
	b.Helper()
	for _, fi := range task.Schema.Fields() {
		golden := task.Golden[fi.Color()]
		if len(golden) == 0 {
			continue
		}
		pos := golden
		if len(pos) > 2 {
			pos = pos[:2]
		}
		fp, err := engine.SynthesizeFieldProgram(
			task.Doc, task.Schema, engine.Highlighting{}, fi,
			append([]region.Region(nil), pos...), nil, map[string]bool{})
		if err != nil {
			b.Fatalf("field %s: %v", fi.Color(), err)
		}
		if fp == nil {
			b.Fatalf("field %s: no program", fi.Color())
		}
	}
}

// BenchmarkFieldSynthesisLargestText measures end-to-end field synthesis
// on the largest text corpus document (hadoop-xl, ~100 KB).
func BenchmarkFieldSynthesisLargestText(b *testing.B) {
	task := corpus.LargestText()
	b.SetBytes(int64(len(task.Doc.WholeRegion().Value())))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		synthesizeTaskFields(b, task)
	}
}

// BenchmarkFieldSynthesisTextCorpus measures end-to-end field synthesis
// across the full 25-document text corpus.
func BenchmarkFieldSynthesisTextCorpus(b *testing.B) {
	tasks := corpus.Text()
	for i := 0; i < b.N; i++ {
		for _, task := range tasks {
			synthesizeTaskFields(b, task)
		}
	}
}

// BenchmarkFieldSynthesisWebCorpus measures end-to-end field synthesis
// across the webpage corpus.
func BenchmarkFieldSynthesisWebCorpus(b *testing.B) {
	tasks := corpus.Web()
	for i := 0; i < b.N; i++ {
		for _, task := range tasks {
			synthesizeTaskFields(b, task)
		}
	}
}

// BenchmarkSimulateLargestText replays the full §6 interaction (iterated
// synthesize → execute → refine) on the largest text document.
func BenchmarkSimulateLargestText(b *testing.B) {
	task := corpus.LargestText()
	for i := 0; i < b.N; i++ {
		tr := bench.Run(task)
		if !tr.AllSucceeded() {
			for _, f := range tr.Fields {
				if !f.Succeeded {
					b.Fatalf("field %s failed: %s", f.Color, f.FailReason)
				}
			}
		}
	}
}

package textlang

import (
	"context"
	"testing"

	"flashextract/internal/core"
	"flashextract/internal/engine"
	"flashextract/internal/region"
)

// FuzzTextLearn throws arbitrary documents and example regions at the text
// DSL's two synthesis entry points and asserts the learner's contract: it
// never panics, and every program it returns — with and without a tight
// candidate budget — actually reproduces the examples when executed
// (soundness, including under truncation). Seeds mirror the corpus region
// shapes: the paper's analyte report, log lines, and CSV-ish rows.
func FuzzTextLearn(f *testing.F) {
	f.Add(analyteText, 22, 29, 60, 67)
	f.Add("ERROR 2026-01-03 boot failed\nINFO ok\nERROR 2026-01-04 disk full\n", 0, 5, 37, 42)
	f.Add("a,1\nb,22\nc,333\n", 2, 3, 6, 8)
	f.Add("x", 0, 1, 0, 1)
	f.Add("", 0, 0, 0, 0)
	f.Add("one two\tthree\nfour", 0, 3, 4, 7)
	f.Fuzz(func(t *testing.T, text string, a, b, c, d int) {
		if len(text) > 2048 {
			t.Skip()
		}
		doc := NewDocument(text)
		clamp := func(i int) int {
			if i < 0 {
				i = -i
			}
			if len(text) == 0 {
				return 0
			}
			return i % (len(text) + 1)
		}
		a, b, c, d = clamp(a), clamp(b), clamp(c), clamp(d)
		if b < a {
			a, b = b, a
		}
		if d < c {
			c, d = d, c
		}
		r1, r2 := doc.Region(a, b), doc.Region(c, d)
		whole := doc.WholeRegion()
		lang := doc.Language()

		for _, budget := range []core.SynthBudget{{}, {MaxCandidates: 32}} {
			ctx, _ := core.WithBudget(context.Background(), budget)

			seqEx := engine.SeqRegionExample{Input: whole, Positive: []region.Region{r1, r2}}
			for i, p := range lang.SynthesizeSeqRegion(ctx, []engine.SeqRegionExample{seqEx}) {
				if i >= 3 { // verifying the top of the ranked list is enough
					break
				}
				out, err := engine.ExtractSeq(p, whole)
				if err != nil {
					t.Fatalf("learned program %s fails on its own document: %v", p, err)
				}
				if !containsInOrder(out, r1, r2) {
					t.Fatalf("program %s output drops its examples [%d,%d) [%d,%d)", p, a, b, c, d)
				}
			}

			regEx := engine.RegionExample{Input: whole, Output: r1}
			for i, p := range lang.SynthesizeRegion(ctx, []engine.RegionExample{regEx}) {
				if i >= 3 {
					break
				}
				got, err := engine.Extract(p, whole)
				if err != nil {
					t.Fatalf("learned program %s fails on its own document: %v", p, err)
				}
				gr, ok := got.(Region)
				if !ok || gr.Start != a || gr.End != b {
					t.Fatalf("program %s extracts %v, example was [%d,%d)", p, got, a, b)
				}
			}
		}
	})
}

// containsInOrder reports whether out contains r1 followed by r2 (by
// character span). Coincident examples only need one occurrence.
func containsInOrder(out []region.Region, r1, r2 Region) bool {
	i := 0
	want := []Region{r1, r2}
	if r1.Start == r2.Start && r1.End == r2.End {
		want = want[:1]
	}
	for _, r := range out {
		tr, ok := r.(Region)
		if !ok {
			return false
		}
		if tr.Start == want[i].Start && tr.End == want[i].End {
			i++
			if i == len(want) {
				return true
			}
		}
	}
	return false
}

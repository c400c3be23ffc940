package bench_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"testing"

	"flashextract/internal/bench/corpus"
	"flashextract/internal/core"
	"flashextract/internal/engine"
)

// rankedExamples are the golden-instance counts per field each ranked list
// is learned from.
var rankedExamples = []int{1, 2, 3}

// TestRankedDigests pins the whole ranked list of sequence programs, not
// only the program that wins. For every field of every text and web
// corpus task and each count k of rankedExamples, it learns ⊥-relative
// (SynthesizeSeqRegion on the whole document) from the field's first k
// golden instances, or all of them when it has fewer, marshals each returned program with
// core.MarshalProgram in rank order, and renders the list's length and
// the SHA-256 of the programs, one per line. The lines must match
// testdata/ranked_digests.txt; regenerate it with `make program-digests`.
func TestRankedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("learns three ranked lists per field of the 50 text and web tasks")
	}
	tasks := append(corpus.Text(), corpus.Web()...)
	var b bytes.Buffer
	for _, task := range tasks {
		whole := task.Doc.WholeRegion()
		for _, fi := range task.Schema.Fields() {
			golden := task.Golden[fi.Color()]
			for _, k := range rankedExamples {
				progs := task.Doc.Language().SynthesizeSeqRegion(context.Background(),
					[]engine.SeqRegionExample{{Input: whole, Positive: golden[:min(k, len(golden))]}})
				h := sha256.New()
				for _, p := range progs {
					body, err := core.MarshalProgram(p)
					if err != nil {
						t.Fatalf("%s %s k=%d: %v", task.Name, fi.Color(), k, err)
					}
					h.Write(body)
					h.Write([]byte{'\n'})
				}
				fmt.Fprintf(&b, "%s\t%s\t%d\t%d\t%x\n", task.Name, fi.Color(), k, len(progs), h.Sum(nil))
			}
		}
	}
	checkDigests(t, filepath.Join("testdata", "ranked_digests.txt"), tasks, b.Bytes())
}

// Package bench implements the experimental methodology of the paper's
// evaluation (§6): a benchmark task couples a document with an output
// schema and golden annotations for every field, and a simulator replays
// the example-based interaction in the hardest scenario — learning every
// field relative to ⊥, the whole document — measuring how many examples
// each field needs and how long the final synthesis call takes.
package bench

import (
	"context"
	"fmt"
	"time"

	"flashextract/internal/core"
	"flashextract/internal/engine"
	"flashextract/internal/region"
	"flashextract/internal/schema"
)

// Task is one benchmark document with its extraction task.
type Task struct {
	// Name is the document label (the x-axis labels of Figs. 10 and 11).
	Name string
	// Domain is "text", "web", or "sheet".
	Domain string
	// Doc is the document under extraction.
	Doc engine.Document
	// Source is the raw serialized form of Doc (text content, HTML, or
	// CSV), so batch runs can re-open the document from bytes the way the
	// CLI does from files.
	Source string
	// Schema is the output schema of the task.
	Schema *schema.Schema
	// Golden maps every field color to the manually annotated instances
	// that define the task.
	Golden map[string][]region.Region
}

// FieldResult records the simulated interaction for one field.
type FieldResult struct {
	Color      string
	Positives  int
	Negatives  int
	Iterations int
	// LastSynth is the synthesis time of the last iteration (the one with
	// the most examples), as reported in Fig. 11.
	LastSynth time.Duration
	Succeeded bool
	// FailReason describes why the simulation failed, if it did.
	FailReason string
	// Program is the final learned SeqRegion program when the simulation
	// succeeded (⊥-relative simulations only); it enables transfer
	// evaluation.
	Program core.Program
}

// Examples returns the total number of examples given.
func (fr FieldResult) Examples() int { return fr.Positives + fr.Negatives }

// TaskResult aggregates a task's per-field results.
type TaskResult struct {
	Task   *Task
	Fields []FieldResult
}

// AllSucceeded reports whether every field converged to its golden set.
func (tr TaskResult) AllSucceeded() bool {
	for _, f := range tr.Fields {
		if !f.Succeeded {
			return false
		}
	}
	return true
}

// AvgExamples returns the average number of positive and negative
// instances per field.
func (tr TaskResult) AvgExamples() (pos, neg float64) {
	if len(tr.Fields) == 0 {
		return 0, 0
	}
	for _, f := range tr.Fields {
		pos += float64(f.Positives)
		neg += float64(f.Negatives)
	}
	n := float64(len(tr.Fields))
	return pos / n, neg / n
}

// AvgLastSynth returns the average last-iteration synthesis time per
// field.
func (tr TaskResult) AvgLastSynth() time.Duration {
	if len(tr.Fields) == 0 {
		return 0
	}
	var total time.Duration
	for _, f := range tr.Fields {
		total += f.LastSynth
	}
	return total / time.Duration(len(tr.Fields))
}

// MaxIterations bounds the simulated interaction per field; the paper's
// benchmarks converge within a handful of examples, so hitting this bound
// indicates a divergent task.
var MaxIterations = 24

// SimulateField replays the §6 interaction for one field in the hardest
// scenario (relative to ⊥): start with the first golden region as the only
// positive instance; each iteration synthesizes, executes, and adds the
// first mismatched region as a new positive (if missing from the output)
// or negative (if spurious) instance — along with all correctly
// highlighted regions occurring before it, as positives.
func SimulateField(doc engine.Document, golden []region.Region) FieldResult {
	fr := FieldResult{}
	if len(golden) == 0 {
		fr.FailReason = "no golden instances"
		return fr
	}
	golden = append([]region.Region(nil), golden...)
	region.Sort(golden)
	ex := engine.SeqRegionExample{
		Input:    doc.WholeRegion(),
		Positive: []region.Region{golden[0]},
	}
	lang := doc.Language()
	for iter := 1; iter <= MaxIterations; iter++ {
		fr.Iterations = iter
		fr.Positives = len(ex.Positive)
		fr.Negatives = len(ex.Negative)
		start := time.Now()
		progs := lang.SynthesizeSeqRegion(context.Background(), []engine.SeqRegionExample{ex})
		fr.LastSynth = time.Since(start)
		if len(progs) == 0 {
			fr.FailReason = "synthesis failed"
			return fr
		}
		out, err := engine.ExtractSeq(progs[0], doc.WholeRegion())
		if err != nil {
			fr.FailReason = fmt.Sprintf("execution failed: %v", err)
			return fr
		}
		missing, spurious, prefix := firstMismatch(golden, out)
		if missing == nil && spurious == nil {
			fr.Succeeded = true
			fr.Program = progs[0]
			return fr
		}
		// All correctly highlighted regions before the mismatch become
		// positive instances.
		for _, r := range prefix {
			ex.Positive = addRegion(ex.Positive, r)
		}
		if missing != nil {
			ex.Positive = addRegion(ex.Positive, missing)
		} else if g := overlappingGolden(golden, ex.Positive, spurious); g != nil {
			// The program highlighted a wrong extent overlapping an
			// intended instance: the user redraws the correct extent
			// rather than striking a region that covers wanted data.
			ex.Positive = addRegion(ex.Positive, g)
		} else {
			ex.Negative = addRegion(ex.Negative, spurious)
		}
	}
	fr.FailReason = fmt.Sprintf("no convergence within %d iterations", MaxIterations)
	return fr
}

// firstMismatch walks the golden and output sequences in document order.
// It returns the first golden region missing from the output, or the first
// output region absent from the golden set, together with the correctly
// highlighted regions preceding the mismatch.
func firstMismatch(golden, out []region.Region) (missing, spurious region.Region, prefix []region.Region) {
	i, j := 0, 0
	for i < len(golden) && j < len(out) {
		if golden[i] == out[j] {
			prefix = append(prefix, out[j])
			i++
			j++
			continue
		}
		if out[j].Less(golden[i]) {
			return nil, out[j], prefix
		}
		return golden[i], nil, prefix
	}
	if i < len(golden) {
		return golden[i], nil, prefix
	}
	if j < len(out) {
		return nil, out[j], prefix
	}
	return nil, nil, prefix
}

// overlappingGolden returns a golden region overlapping r that is not yet
// among the positives, or nil.
func overlappingGolden(golden, positives []region.Region, r region.Region) region.Region {
	for _, g := range golden {
		if g == r || !g.Overlaps(r) {
			continue
		}
		already := false
		for _, p := range positives {
			if p == g {
				already = true
				break
			}
		}
		if !already {
			return g
		}
	}
	return nil
}

func addRegion(rs []region.Region, r region.Region) []region.Region {
	for _, x := range rs {
		if x == r {
			return rs
		}
	}
	rs = append(rs, r)
	region.Sort(rs)
	return rs
}

// Run simulates every field of a task.
func Run(t *Task) TaskResult {
	tr := TaskResult{Task: t}
	for _, fi := range t.Schema.Fields() {
		golden := t.Golden[fi.Color()]
		fr := SimulateField(t.Doc, golden)
		fr.Color = fi.Color()
		tr.Fields = append(tr.Fields, fr)
	}
	return tr
}

// RunAll simulates a set of tasks.
func RunAll(tasks []*Task) []TaskResult {
	out := make([]TaskResult, len(tasks))
	for i, t := range tasks {
		out[i] = Run(t)
	}
	return out
}

// Summary aggregates results into the headline numbers of §6.
type Summary struct {
	Documents    int
	Fields       int
	Failures     int
	AvgExamples  float64
	AvgPositives float64
	AvgNegatives float64
	AvgLastSynth time.Duration
}

// Summarize computes the headline aggregate over task results.
func Summarize(results []TaskResult) Summary {
	var s Summary
	var synth time.Duration
	for _, tr := range results {
		s.Documents++
		for _, f := range tr.Fields {
			s.Fields++
			if !f.Succeeded {
				s.Failures++
			}
			s.AvgPositives += float64(f.Positives)
			s.AvgNegatives += float64(f.Negatives)
			synth += f.LastSynth
		}
	}
	if s.Fields > 0 {
		n := float64(s.Fields)
		s.AvgPositives /= n
		s.AvgNegatives /= n
		s.AvgExamples = s.AvgPositives + s.AvgNegatives
		s.AvgLastSynth = synth / time.Duration(s.Fields)
	}
	return s
}

package bench

import (
	"context"
	"fmt"
	"time"

	"flashextract/internal/engine"
	"flashextract/internal/metrics"
	"flashextract/internal/region"
)

// SynthTiming is one end-to-end field-synthesis measurement: the wall time
// of the Algorithm 2 driver (learning plus the execute-and-check candidate
// validation loop) over every field of a task, ⊥-relative, from two golden
// examples per field. This is the hot loop behind every interactive
// refinement and the quantity tracked in BENCH_synth.json.
type SynthTiming struct {
	Name     string `json:"name"`
	Domain   string `json:"domain"`
	DocBytes int    `json:"doc_bytes"`
	Fields   int    `json:"fields"`
	Reps     int    `json:"reps"`
	BestNs   int64  `json:"best_ns"`
	MeanNs   int64  `json:"mean_ns"`
	// Explored is the synth_candidates_explored total of one uncapped
	// synthesis pass over the same fields.
	Explored int64 `json:"explored"`
}

// MeasureSynth times reps runs of end-to-end field synthesis on a task and
// reports the best and mean wall time.
func MeasureSynth(task *Task, reps int) (SynthTiming, error) {
	if reps < 1 {
		reps = 1
	}
	st := SynthTiming{
		Name:     task.Name,
		Domain:   task.Domain,
		DocBytes: len(task.Doc.WholeRegion().Value()),
		Reps:     reps,
	}
	var total time.Duration
	for r := 0; r < reps; r++ {
		start := time.Now()
		fields := 0
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
				return st, fmt.Errorf("field %s: %w", fi.Color(), err)
			}
			if fp == nil {
				return st, fmt.Errorf("field %s: no program", fi.Color())
			}
			fields++
		}
		elapsed := time.Since(start)
		total += elapsed
		st.Fields = fields
		if st.BestNs == 0 || elapsed.Nanoseconds() < st.BestNs {
			st.BestNs = elapsed.Nanoseconds()
		}
	}
	st.MeanNs = total.Nanoseconds() / int64(reps)
	var err error
	st.Explored, err = MeasureExplored(task)
	return st, err
}

// MeasureExplored runs one ⊥-relative synthesis pass over every field of
// the task, from two golden examples each, and reports the
// candidates-explored counter total.
func MeasureExplored(task *Task) (int64, error) {
	reg := metrics.NewRegistry()
	ctx := metrics.Into(context.Background(), reg)
	for _, fi := range task.Schema.Fields() {
		golden := task.Golden[fi.Color()]
		if len(golden) == 0 {
			continue
		}
		pos := golden
		if len(pos) > 2 {
			pos = pos[:2]
		}
		_, _, err := engine.SynthesizeFieldProgramCtx(
			ctx, task.Doc, task.Schema, engine.Highlighting{}, fi,
			append([]region.Region(nil), pos...), nil, map[string]bool{})
		if err != nil {
			return 0, fmt.Errorf("field %s: %w", fi.Color(), err)
		}
	}
	return reg.Counter(metrics.CandidatesExplored), nil
}

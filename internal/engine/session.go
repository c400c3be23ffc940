package engine

import (
	"context"
	"fmt"
	"time"

	"flashextract/internal/core"
	"flashextract/internal/metrics"
	"flashextract/internal/region"
	"flashextract/internal/schema"
)

// Session is the interactive example-based workflow of §3: the user picks
// a field, highlights positive (and possibly negative) example regions,
// asks FlashExtract to learn, inspects the inferred highlighting, and
// either provides more examples or commits the field and moves on.
//
// Learn calls are incremental by default: the session retains the ranked
// candidate set of each field's last complete synthesis call, and a
// re-learn after adding examples intersects the retained candidates with
// the extended spec instead of restarting the DSL learner (see
// incremental.go for the reuse conditions and the fallback rules).
type Session struct {
	doc Document
	sch *schema.Schema

	cr           Highlighting    // committed highlighting
	materialized map[string]bool // colors whose programs are committed
	programs     map[string]*FieldProgram
	pos, neg     map[string][]region.Region // examples per color

	budget      core.SynthBudget  // per-Learn budget (zero = unlimited)
	reg         *metrics.Registry // session-lifetime engine metrics
	partial     map[string]*PartialResult
	stats       SessionStats
	inc         map[string]*incState // retained candidate state per color
	incremental bool                 // reuse retained state across Learn calls
	epoch       int                  // count of first commits; see Commit
}

// SessionStats aggregates the engine metrics of a session: per-call
// synthesis outcomes plus the document's evaluation-cache counters. It is
// a snapshot; see Session.Stats.
type SessionStats struct {
	// LearnCalls counts Learn/LearnContext/InferStructure synthesis calls,
	// including calls that returned an error or no program. (Requests
	// rejected before synthesis starts — an unknown color, an already
	// materialized field — are not synthesis calls and are not counted.)
	LearnCalls int64 `json:"learn_calls"`
	// PartialResults counts calls that exhausted their budget.
	PartialResults int64 `json:"partial_results"`
	// CandidatesExplored totals candidate programs examined.
	CandidatesExplored int64 `json:"candidates_explored"`
	// LearnerFanout totals learners dispatched by Union combinators.
	LearnerFanout int64 `json:"learner_fanout"`
	// IncrementalHits counts Learn calls served from the session's retained
	// candidate state without re-invoking the DSL learner.
	IncrementalHits int64 `json:"incremental_hits"`
	// IncrementalFallbacks counts Learn calls that had retained candidate
	// state but fell back to a cold re-synthesis.
	IncrementalFallbacks int64 `json:"incremental_fallbacks"`
	// CandidatesPruned and AbstractionRefinements are always 0: they were
	// the counters of the abstraction-guided candidate pruner, which has
	// been removed (DESIGN.md "Sub-learn replay"). They stay so that
	// readers of the stats keep compiling.
	CandidatesPruned       int64 `json:"candidates_pruned"`
	AbstractionRefinements int64 `json:"abstraction_refinements"`
	// SynthTime totals wall time spent inside synthesis calls.
	SynthTime time.Duration `json:"synth_time_ns"`
	// Cache holds the document's evaluation-cache counters (zero value
	// when the document type has no cache).
	Cache CacheStats `json:"cache"`
	// Metrics is the full snapshot of the session's metric registry,
	// including the per-phase latency histograms.
	Metrics metrics.Snapshot `json:"metrics"`
}

// NewSession starts an extraction session for a document and schema.
func NewSession(doc Document, sch *schema.Schema) *Session {
	return &Session{
		doc:          doc,
		sch:          sch,
		cr:           Highlighting{},
		materialized: map[string]bool{},
		programs:     map[string]*FieldProgram{},
		pos:          map[string][]region.Region{},
		neg:          map[string][]region.Region{},
		reg:          metrics.NewRegistry(),
		partial:      map[string]*PartialResult{},
		inc:          map[string]*incState{},
		incremental:  true,
	}
}

// Schema returns the session's output schema.
func (s *Session) Schema() *schema.Schema { return s.sch }

// Document returns the session's document.
func (s *Session) Document() Document { return s.doc }

// SetBudget installs a synthesis budget applied to every subsequent Learn
// call of the session (in addition to any deadline on the call's context).
// The zero budget removes all session-level limits.
func (s *Session) SetBudget(b core.SynthBudget) { s.budget = b }

// Stats returns a snapshot of the session's engine metrics: learn calls,
// partial results, candidates explored, learner fan-out, incremental
// reuse outcomes, synthesis wall time, per-phase latency histograms, and
// the document cache counters.
func (s *Session) Stats() SessionStats {
	st := s.stats
	st.Metrics = s.reg.Snapshot()
	st.LearnerFanout = s.reg.Counter(metrics.LearnerFanout)
	if cs, ok := s.doc.(CacheStatser); ok {
		st.Cache = cs.CacheStats()
	}
	return st
}

// LastPartial returns the PartialResult of the most recent synthesis call
// for a color (nil when the field has not been learned).
func (s *Session) LastPartial(color string) *PartialResult { return s.partial[color] }

// field resolves a color to its schema field.
func (s *Session) field(color string) (*schema.FieldInfo, error) {
	fi := s.sch.FieldByColor(color)
	if fi == nil {
		return nil, fmt.Errorf("engine: schema has no field with color %q", color)
	}
	return fi, nil
}

// mutableField resolves a color to a field whose examples may still be
// edited: materialized fields have a committed program, so mutating their
// spec could only desynchronize the session.
func (s *Session) mutableField(color string) (*schema.FieldInfo, error) {
	fi, err := s.field(color)
	if err != nil {
		return nil, err
	}
	if s.materialized[color] {
		return nil, fmt.Errorf("engine: field %s is already materialized; examples can no longer be changed", color)
	}
	return fi, nil
}

// AddPositive records a positive example region for the field of the given
// color. The field must not be materialized, and the region must not
// already be recorded as a negative example.
func (s *Session) AddPositive(color string, r region.Region) error {
	if _, err := s.mutableField(color); err != nil {
		return err
	}
	if containsRegion(s.neg[color], r) {
		return fmt.Errorf("engine: region %s is already a negative example for field %s; remove it (ClearExamples) before marking it positive", r, color)
	}
	if containsRegion(s.pos[color], r) {
		return nil
	}
	s.pos[color] = append(s.pos[color], r)
	region.Sort(s.pos[color])
	return nil
}

// AddNegative records a negative example region for the field of the given
// color. The field must not be materialized, and the region must not
// already be recorded as a positive example.
func (s *Session) AddNegative(color string, r region.Region) error {
	if _, err := s.mutableField(color); err != nil {
		return err
	}
	if containsRegion(s.pos[color], r) {
		return fmt.Errorf("engine: region %s is already a positive example for field %s; remove it (ClearExamples) before marking it negative", r, color)
	}
	if containsRegion(s.neg[color], r) {
		return nil
	}
	s.neg[color] = append(s.neg[color], r)
	region.Sort(s.neg[color])
	return nil
}

// ClearExamples removes all recorded examples for a color and invalidates
// everything derived from them: the learned program, the last
// PartialResult, and any retained incremental candidate state. A field
// cleared after Learn must be re-learned before it can be committed.
func (s *Session) ClearExamples(color string) error {
	if _, err := s.mutableField(color); err != nil {
		return err
	}
	delete(s.pos, color)
	delete(s.neg, color)
	delete(s.programs, color)
	delete(s.partial, color)
	delete(s.inc, color)
	return nil
}

// Learn synthesizes a field extraction program for the field of the given
// color from the examples recorded so far and returns the program together
// with the full highlighting it infers for the field. It is LearnContext
// with a background context (the session budget, if any, still applies).
func (s *Session) Learn(color string) (*FieldProgram, []region.Region, error) {
	fp, rs, _, err := s.LearnContext(context.Background(), color)
	return fp, rs, err
}

// LearnContext is Learn bounded by a context: the context's deadline and
// cancellation, together with the session budget installed by SetBudget,
// stop synthesis cooperatively. On budget exhaustion the best program
// found so far is returned (when one exists) along with a PartialResult
// describing the truncation; the caller decides whether to keep it,
// refine, or retry with a larger budget.
//
// When the session holds reusable candidate state for the color (a
// previous complete Learn under the same committed highlighting, and the
// examples have only grown), the call is served by intersecting the
// retained candidates with the extended spec instead of re-running the DSL
// learner; otherwise it falls back to a cold synthesis, which refreshes
// the retained state. A reuse hit keeps the previously inferred
// highlighting unchanged (the new examples confirmed it); a fallback is
// bit-identical to a from-scratch call (see incremental.go for the
// contract).
func (s *Session) LearnContext(ctx context.Context, color string) (*FieldProgram, []region.Region, *PartialResult, error) {
	fi, err := s.field(color)
	if err != nil {
		return nil, nil, nil, err
	}
	if s.materialized[color] {
		return nil, nil, nil, fmt.Errorf("engine: field %s is already materialized", color)
	}
	pos, neg := s.pos[color], s.neg[color]
	// One metric sink and one budget are shared by the incremental attempt
	// and the cold fallback: a failed attempt consumes no candidate budget
	// (see tryIncremental), so the fallback sees the budget a pure cold
	// call would.
	ctx = metrics.Into(ctx, s.reg)
	ctx, _ = core.WithBudget(ctx, s.budget)
	if fp, pr, ok := s.tryIncremental(ctx, fi, pos, neg); ok {
		s.record(color, pr)
		s.programs[color] = fp
		return fp, fp.run(s.doc, s.cr), pr, nil
	}
	var capture learnedCandidates
	fp, pr, err := synthesizeFieldProgramCapture(ctx, s.doc, s.sch, s.cr, fi, pos, neg, s.materialized, &capture)
	s.captureIncremental(color, capture, pr, err, pos, neg)
	s.record(color, pr)
	if err != nil {
		return nil, nil, pr, err
	}
	s.programs[color] = fp
	return fp, fp.run(s.doc, s.cr), pr, nil
}

// synthesize runs the budgeted Algorithm 2 driver with the session's
// metric registry installed on the context.
func (s *Session) synthesize(ctx context.Context, fi *schema.FieldInfo, pos, neg []region.Region) (*FieldProgram, *PartialResult, error) {
	ctx = metrics.Into(ctx, s.reg)
	ctx, _ = core.WithBudget(ctx, s.budget)
	return SynthesizeFieldProgramCtx(ctx, s.doc, s.sch, s.cr, fi, pos, neg, s.materialized)
}

// record folds one synthesis outcome into the session stats. Every
// synthesis call is counted, including ones that failed before producing a
// PartialResult; the per-color partial slot always reflects the latest
// call.
func (s *Session) record(color string, pr *PartialResult) {
	s.stats.LearnCalls++
	s.partial[color] = pr
	if pr == nil {
		return
	}
	if pr.Exhausted {
		s.stats.PartialResults++
	}
	s.stats.CandidatesExplored += pr.CandidatesExplored
	s.stats.SynthTime += pr.Elapsed
}

// Commit materializes a field: the highlighting inferred by its learned
// program becomes part of the committed highlighting, enabling descendant
// fields to learn relative to it. Learn must have succeeded for the color.
func (s *Session) Commit(color string) error {
	fi, err := s.field(color)
	if err != nil {
		return err
	}
	fp := s.programs[color]
	if fp == nil {
		return fmt.Errorf("engine: field %s has no learned program to commit", color)
	}
	crNew := s.cr.Clone()
	crNew[color] = nil
	crNew.Add(color, fp.run(s.doc, s.cr)...)
	if err := crNew.ConsistentWith(s.sch); err != nil {
		return fmt.Errorf("engine: committing %s: %w", color, err)
	}
	if !s.materialized[color] {
		// A first commit changes the environment that every retained
		// candidate set was validated in, so it stales them all. A
		// re-commit reruns the same program over the same ancestor
		// regions and leaves the environment as it was.
		s.epoch++
	}
	s.cr = crNew
	s.materialized[fi.Color()] = true
	// The field can no longer be re-learned, so its retained candidate
	// state is dead weight.
	delete(s.inc, color)
	return nil
}

// Materialized reports whether the field of the given color has been
// committed.
func (s *Session) Materialized(color string) bool { return s.materialized[color] }

// Highlighting returns the committed highlighting.
func (s *Session) Highlighting() Highlighting { return s.cr.Clone() }

// Program assembles the schema extraction program once every field has
// been materialized.
func (s *Session) Program() (*SchemaProgram, error) {
	q := &SchemaProgram{Schema: s.sch, Fields: map[string]*FieldProgram{}}
	for _, fi := range s.sch.Fields() {
		fp := s.programs[fi.Color()]
		if fp == nil || !s.materialized[fi.Color()] {
			return nil, fmt.Errorf("engine: field %s [%s] has not been materialized", fi.Path, fi.Color())
		}
		q.Fields[fi.Color()] = fp
	}
	return q, nil
}

// Extract runs the assembled schema program on the session's document and
// returns the resulting schema instance.
func (s *Session) Extract() (*Instance, error) {
	q, err := s.Program()
	if err != nil {
		return nil, err
	}
	inst, _, err := q.Run(s.doc)
	return inst, err
}

package engine

import (
	"context"
	"fmt"
	"time"

	"flashextract/internal/core"
	"flashextract/internal/faults"
	"flashextract/internal/logx"
	"flashextract/internal/metrics"
	"flashextract/internal/region"
	"flashextract/internal/schema"
	"flashextract/internal/trace"
)

// PartialResult describes how a synthesis call ended with respect to its
// budget. When the budget (wall-clock deadline, candidate cap, or context
// cancellation) is exhausted mid-search, the call degrades gracefully: it
// returns the best program found so far — every returned program is still
// consistent with the examples — together with a PartialResult instead of
// an error. Exhausted is false for a run to completion.
type PartialResult struct {
	// Exhausted reports whether the budget tripped during the call.
	Exhausted bool `json:"exhausted"`
	// Reason is why it tripped: "deadline", "cancelled", "candidates", or
	// "injected" (empty when Exhausted is false).
	Reason string `json:"reason,omitempty"`
	// CandidatesExplored counts the candidate programs examined.
	CandidatesExplored int64 `json:"candidates_explored"`
	// TruncatedPhases lists the synthesis phases that stopped scanning
	// candidates on budget exhaustion ("cleanup", "synthesize_seq",
	// "synthesize_region"): the ranking degraded to a verified prefix
	// instead of the full candidate list.
	TruncatedPhases []string `json:"truncated_phases,omitempty"`
	// Elapsed is the wall time of the call.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// SynthesizeFieldProgram implements Algorithm 2 of the paper with a
// background context; see SynthesizeFieldProgramCtx.
func SynthesizeFieldProgram(
	doc Document,
	m *schema.Schema,
	cr Highlighting,
	f *schema.FieldInfo,
	pos, neg []region.Region,
	materialized map[string]bool,
) (*FieldProgram, error) {
	fp, _, err := SynthesizeFieldProgramCtx(context.Background(), doc, m, cr, f, pos, neg, materialized)
	return fp, err
}

// SynthesizeFieldProgramCtx implements Algorithm 2 of the paper: given a
// document, a schema, a highlighting consistent with the schema, a
// non-materialized field f, and positive/negative example regions, it
// synthesizes a field extraction program (f′, P) such that P is consistent
// with the examples and executing it yields a highlighting consistent with
// the schema. Ancestors are tried nearest first; only materialized
// ancestors (or ⊥) form learning boundaries. materialized maps field
// colors to whether their highlighting has been committed.
//
// The context bounds the call: its deadline, its cancellation, and any
// budget installed with core.WithBudget stop the search cooperatively. The
// returned PartialResult is never nil and records whether the search was
// truncated; on truncation the returned program (if any) is the best found
// so far.
func SynthesizeFieldProgramCtx(
	ctx context.Context,
	doc Document,
	m *schema.Schema,
	cr Highlighting,
	f *schema.FieldInfo,
	pos, neg []region.Region,
	materialized map[string]bool,
) (*FieldProgram, *PartialResult, error) {
	start := time.Now()
	bud := core.BudgetFrom(ctx)
	if bud == nil {
		// Adopt the context's own deadline/cancellation as the budget so
		// plain context.WithTimeout callers get cooperative cancellation.
		ctx, bud = core.WithBudget(ctx, core.SynthBudget{})
	}
	sink := metrics.From(ctx)
	sink.Count(metrics.LearnCalls, 1)
	// Chaos site: exhaust the budget before the learner starts, forcing the
	// graceful-degradation path for this field as if a deadline had tripped.
	if faults.From(ctx).Hit(faults.SiteBudget, "learn:"+f.Color()) {
		bud.Trip(core.ReasonInjected)
	}

	// Field-level span: the root of one Algorithm 2 call's trace subtree.
	ctx, fsp := trace.Start(ctx, "field:"+f.Color())
	fsp.SetString("path", f.Path)
	fsp.SetInt("pos", int64(len(pos)))
	fsp.SetInt("neg", int64(len(neg)))
	// Only the traced "cache" child span reads the cache counters.
	var cacheBefore CacheStats
	if cs, ok := doc.(CacheStatser); ok && fsp != nil {
		cacheBefore = cs.CacheStats()
	}

	finish := func(fp *FieldProgram, err error) (*FieldProgram, *PartialResult, error) {
		pr := &PartialResult{
			Exhausted:          bud.Reason() != "",
			Reason:             bud.Reason(),
			CandidatesExplored: bud.Explored(),
			TruncatedPhases:    bud.Truncations(),
			Elapsed:            time.Since(start),
		}
		sink.Count(metrics.CandidatesExplored, pr.CandidatesExplored)
		if pr.Exhausted {
			sink.Count(metrics.PartialResults, 1)
		}
		if fsp != nil {
			// A zero-length "cache" child span carries the document
			// evaluation-cache deltas of this synthesis call.
			if cs, ok := doc.(CacheStatser); ok {
				after := cs.CacheStats()
				_, csp := trace.Start(ctx, "cache")
				csp.SetInt("hits_delta", after.Hits-cacheBefore.Hits)
				csp.SetInt("misses_delta", after.Misses-cacheBefore.Misses)
				csp.SetInt("entries", after.Entries)
				csp.SetInt("approx_bytes", after.ApproxBytes)
				csp.End()
			}
			fsp.SetInt("candidates", pr.CandidatesExplored)
			fsp.SetBool("ok", err == nil)
			if pr.Reason != "" {
				fsp.SetString("exhausted", pr.Reason)
			}
			if rem, hasDeadline := bud.Remaining(); hasDeadline {
				fsp.SetFloat("budget_remaining_ms", float64(rem.Nanoseconds())/1e6)
			}
			fsp.End()
		}
		logx.From(ctx).Debug("synthesized field",
			"field", f.Color(), "ok", err == nil,
			"candidates", pr.CandidatesExplored,
			"elapsed", pr.Elapsed, "exhausted", pr.Reason)
		return fp, pr, err
	}

	if len(pos) == 0 {
		return finish(nil, fmt.Errorf("engine: field %s: at least one positive example is required", f.Color()))
	}
	lang := doc.Language()
	var lastErr error
	for _, anc := range f.Ancestors() {
		if anc != nil && !materialized[anc.Color()] {
			continue
		}
		var inputs []region.Region
		if anc == nil {
			inputs = []region.Region{doc.WholeRegion()}
		} else {
			inputs = cr[anc.Color()]
		}
		actx, asp := trace.Start(ctx, "ancestor:"+ancName(anc))
		asp.SetInt("inputs", int64(len(inputs)))
		fp, err := synthesizeAgainstAncestor(actx, doc, m, cr, f, anc, inputs, pos, neg, lang)
		asp.SetBool("ok", err == nil)
		asp.End()
		if err != nil {
			lastErr = err
			if bud.ExhaustedNow() {
				// Later (farther) ancestors cannot be explored in budget
				// either; stop instead of burning the remaining deadline.
				break
			}
			continue
		}
		return finish(fp, nil)
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("engine: field %s: no materialized ancestor available", f.Color())
	}
	if reason := bud.Reason(); reason != "" {
		lastErr = fmt.Errorf("engine: field %s: synthesis budget exhausted (%s) before a program was found: %w", f.Color(), reason, lastErr)
	}
	return finish(nil, lastErr)
}

// seqExamplesFor splits field examples into per-ancestor-region sequence
// examples: within every input region holding at least one example, the
// nested positives must be extracted and the nested negatives must not. An
// example nested in no input region is an error — the ancestor cannot
// explain it.
func seqExamplesFor(f *schema.FieldInfo, anc *schema.FieldInfo, inputs, pos, neg []region.Region) ([]SeqRegionExample, error) {
	var exs []SeqRegionExample
	covered := 0
	for _, in := range inputs {
		p := region.Subregions(in, pos)
		n := region.Subregions(in, neg)
		if len(p) == 0 && len(n) == 0 {
			continue
		}
		covered += len(p) + len(n)
		exs = append(exs, SeqRegionExample{Input: in, Positive: p, Negative: n})
	}
	if covered < len(pos)+len(neg) {
		return nil, fmt.Errorf("engine: field %s: some examples lie outside every %s-region", f.Color(), ancName(anc))
	}
	if len(exs) == 0 {
		return nil, fmt.Errorf("engine: field %s: no examples within %s-regions", f.Color(), ancName(anc))
	}
	return exs, nil
}

// regExamplesFor splits field examples into per-ancestor-region scalar
// examples: at most one positive per structure-ancestor region, every
// positive inside some input region.
func regExamplesFor(f *schema.FieldInfo, anc *schema.FieldInfo, inputs, pos []region.Region) ([]RegionExample, error) {
	var exs []RegionExample
	covered := 0
	for _, in := range inputs {
		p := region.Subregions(in, pos)
		if len(p) == 0 {
			continue
		}
		if len(p) > 1 {
			return nil, fmt.Errorf("engine: field %s: %d positive examples inside one %s-region (want at most 1)",
				f.Color(), len(p), ancName(anc))
		}
		covered += len(p)
		exs = append(exs, RegionExample{Input: in, Output: p[0]})
	}
	if covered < len(pos) {
		return nil, fmt.Errorf("engine: field %s: some examples lie outside every %s-region", f.Color(), ancName(anc))
	}
	if len(exs) == 0 {
		return nil, fmt.Errorf("engine: field %s: no examples within %s-regions", f.Color(), ancName(anc))
	}
	return exs, nil
}

// validatesCandidate reports whether executing fp keeps the highlighting
// consistent with the schema (loop at line 12 of Alg. 2) and re-extracts no
// negative instance. (Sequence synthesis already filters negatives inside
// the language; the check here also covers region programs, whose
// per-ancestor learning API has no negative channel.) It is the shared
// validation predicate of the cold driver and the incremental re-check.
func validatesCandidate(doc Document, m *schema.Schema, cr Highlighting, f *schema.FieldInfo, neg []region.Region, fp *FieldProgram) bool {
	crNew := cr.Clone()
	crNew[f.Color()] = nil
	extracted := fp.run(doc, crNew)
	for _, r := range extracted {
		for _, n := range neg {
			if r == n || r.Overlaps(n) {
				return false
			}
		}
	}
	crNew.Add(f.Color(), extracted...)
	return crNew.consistent(m)
}

// synthesizeAgainstAncestor learns and validates candidates relative to
// one ancestor.
func synthesizeAgainstAncestor(
	ctx context.Context,
	doc Document,
	m *schema.Schema,
	cr Highlighting,
	f *schema.FieldInfo,
	anc *schema.FieldInfo,
	inputs []region.Region,
	pos, neg []region.Region,
	lang Language,
) (*FieldProgram, error) {
	sink := metrics.From(ctx)
	isSeq := f.IsSequenceAncestor(anc)
	learnStart := time.Now()
	var learn func(context.Context) []core.Program
	kind := "region"
	if isSeq {
		exs, err := seqExamplesFor(f, anc, inputs, pos, neg)
		if err != nil {
			return nil, err
		}
		learn = func(ctx context.Context) []core.Program { return lang.SynthesizeSeqRegion(ctx, exs) }
		kind = "sequence"
	} else {
		exs, err := regExamplesFor(f, anc, inputs, pos)
		if err != nil {
			return nil, err
		}
		learn = func(ctx context.Context) []core.Program { return lang.SynthesizeRegion(ctx, exs) }
	}
	lctx, lsp := trace.Start(ctx, "learn")
	lsp.SetBool("sequence", isSeq)
	progs := learn(lctx)
	lsp.SetInt("programs", int64(len(progs)))
	lsp.End()
	sink.Observe(metrics.PhaseLearn, time.Since(learnStart).Seconds())
	if len(progs) == 0 {
		return nil, fmt.Errorf("engine: field %s: no consistent %s program relative to %s", f.Color(), kind, ancName(anc))
	}

	// Select the first program, in rank order, passing validatesCandidate.
	fieldProgram := func(i int) *FieldProgram { return &FieldProgram{Field: f, Ancestor: anc, P: progs[i]} }
	validateStart := time.Now()
	core.BudgetFrom(ctx).AddCandidates(int64(len(progs)))
	vctx, vsp := trace.Start(ctx, "validate")
	vsp.SetInt("candidates", int64(len(progs)))
	i, complete := firstPassing(vctx, len(progs), func(i int) bool {
		return validatesCandidate(doc, m, cr, f, neg, fieldProgram(i))
	})
	vsp.SetInt("selected", int64(i))
	vsp.SetBool("complete", complete)
	vsp.End()
	sink.Observe(metrics.PhaseValidate, time.Since(validateStart).Seconds())
	if i >= 0 {
		return fieldProgram(i), nil
	}
	if !complete {
		return nil, fmt.Errorf("engine: field %s: synthesis budget exhausted while validating %d candidates", f.Color(), len(progs))
	}
	return nil, fmt.Errorf("engine: field %s: every consistent program violates the schema when executed", f.Color())
}

// firstPassing returns the lowest index i in [0, n) for which try(i) is
// true, or -1 when no index passes, trying candidates in rank order. The
// context and the call's budget are checked before each try; when either
// stops the scan, it returns (-1, false), so a returned index always has
// every lower-ranked candidate tried and rejected before it.
func firstPassing(ctx context.Context, n int, try func(int) bool) (idx int, complete bool) {
	bud := core.BudgetFrom(ctx)
	for i := 0; i < n; i++ {
		if ctx.Err() != nil || bud.ExhaustedNow() {
			return -1, false
		}
		if try(i) {
			return i, true
		}
	}
	return -1, true
}

func ancName(anc *schema.FieldInfo) string {
	if anc == nil {
		return "⊥"
	}
	return anc.Color()
}

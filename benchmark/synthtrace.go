package main

import (
	"context"
	"time"

	"flashextract/internal/engine"
	"flashextract/internal/region"
	"flashextract/internal/trace"
)

// learnFunc runs one Learn call of a session. The untraced run uses
// plainLearn; the traced pass uses synthTrace.learn.
type learnFunc func(ctx context.Context, s *engine.Session, color string) ([]region.Region, error)

func plainLearn(ctx context.Context, s *engine.Session, color string) ([]region.Region, error) {
	_, out, _, err := s.LearnContext(ctx, color)
	return out, err
}

// synthTrace collects the synthesis-side layer metrics of a traced pass:
// self time per span family from the spans synthesis already emits, spans
// dropped by the tracer's cap, and the sessions' engine counters.
type synthTrace struct {
	prof    profile
	dropped int64

	explored, pruned, refinements, hits, fallbacks int64
	cacheHits, cacheMisses, evictions              int64
	cacheBytes, sessions                           int64
}

func newSynthTrace() *synthTrace { return &synthTrace{prof: profile{}} }

// learn is Session.LearnContext with a fresh tracer's root span on the
// context; the finished tree is folded into the profile. A tracer per call
// keeps each tree under the tracer's span cap.
func (st *synthTrace) learn(ctx context.Context, s *engine.Session, color string) ([]region.Region, error) {
	tr := trace.NewTracer()
	tctx, root := tr.StartRoot(ctx, "sample")
	_, out, _, err := s.LearnContext(tctx, color)
	root.End()
	st.prof.add(nodeOf(root, root.Start()), layerOf)
	st.dropped += tr.Dropped()
	return out, err
}

// session folds in the counters of a session the pass has finished with.
func (st *synthTrace) session(s engine.SessionStats) {
	st.explored += s.CandidatesExplored
	st.pruned += s.CandidatesPruned
	st.refinements += s.AbstractionRefinements
	st.hits += s.IncrementalHits
	st.fallbacks += s.IncrementalFallbacks
	st.cacheHits += s.Cache.Hits
	st.cacheMisses += s.Cache.Misses
	st.evictions += s.Cache.Evictions
	st.cacheBytes += s.Cache.ApproxBytes
	st.sessions++
}

// metrics writes the synthesis layer metrics into m, per sample.
// tokens.cache_mb is the mean evaluation-cache size a session ends with.
func (st *synthTrace) metrics(m map[string]float64, samples int) {
	n := float64(samples)
	selfMS := func(family string) float64 {
		if lt := st.prof[family]; lt != nil {
			return ms(lt.self) / n
		}
		return 0
	}
	m["core.cleanup_self_ms"] = selfMS("core.cleanup")
	m["core.map_self_ms"] = selfMS("core.map")
	m["core.filter_self_ms"] = selfMS("core.filter")
	m["core.merge_self_ms"] = selfMS("core.merge")
	m["core.pair_self_ms"] = selfMS("core.pair")
	m["core.union_self_ms"] = selfMS("core.union")
	m["engine.driver_self_ms"] = selfMS("engine.driver")
	m["engine.validate_self_ms"] = selfMS("engine.validate")
	m["textlang.ls_replay_self_ms"] = selfMS("textlang.ls_replay")
	if lt := st.prof["textlang.ls_replay"]; lt != nil {
		m["textlang.ls_replays"] = float64(lt.count) / n
	}
	m["core.candidates_pruned"] = float64(st.pruned) / n
	m["core.prune_ratio"] = ratio(float64(st.pruned), float64(st.pruned+st.explored))
	m["core.abstraction_refinements"] = float64(st.refinements) / n
	m["engine.candidates_explored"] = float64(st.explored) / n
	m["engine.incremental_hits"] = float64(st.hits) / n
	m["engine.incremental_fallbacks"] = float64(st.fallbacks) / n
	m["tokens.cache_hit_ratio"] = ratio(float64(st.cacheHits), float64(st.cacheHits+st.cacheMisses))
	m["tokens.cache_evictions"] = float64(st.evictions) / n
	m["tokens.cache_mb"] = ratio(float64(st.cacheBytes), float64(st.sessions)) / (1 << 20)
	m["trace.dropped_spans"] = float64(st.dropped)
}

// traceOverhead is the traced operations' busy time over the untraced
// ones', for the same operations.
func traceOverhead(m map[string]float64, traced, untraced time.Duration) {
	m["trace.overhead_ratio"] = ratio(traced.Seconds(), untraced.Seconds())
}

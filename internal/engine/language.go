// Package engine implements the document-independent user interaction
// model of FlashExtract (§3 of the paper): output-schema-driven
// highlighting, the execution semantics of schema extraction programs
// (Algorithm 1 and the Fill function of Fig. 5), the field synthesis
// driver (Algorithm 2), and an interactive Session that mirrors the
// example-based workflow of the tool.
//
// The engine is parameterized by a Language — one per document type — that
// exposes the two inductive synthesis APIs of the framework.
package engine

import (
	"context"

	"flashextract/internal/core"
	"flashextract/internal/region"
)

// SeqRegionExample is one example for SynthesizeSeqRegion: within the
// Input region, the Positive regions must be extracted and the Negative
// regions must not.
type SeqRegionExample struct {
	Input    region.Region
	Positive []region.Region
	Negative []region.Region
}

// RegionExample is one example for SynthesizeRegion: within the Input
// region, exactly the Output region must be extracted.
type RegionExample struct {
	Input  region.Region
	Output region.Region
}

// Language is a data-extraction DSL instantiation: it provides the two
// synthesis APIs of the framework (§4.3). Both return ranked lists of core
// programs consistent with the examples: SeqRegion programs, which
// ExtractSeq runs, and Region programs, which Extract runs. An empty list
// means no program in the DSL is consistent. The context carries
// cancellation and the call's synthesis budget (core.WithBudget):
// implementations stop exploring cooperatively when it expires and return
// the consistent programs found so far, so an empty list under an
// exhausted budget means "none found in time", not "none exists".
type Language interface {
	SynthesizeSeqRegion(ctx context.Context, exs []SeqRegionExample) []core.Program
	SynthesizeRegion(ctx context.Context, exs []RegionExample) []core.Program
}

// CacheStats summarizes a document's evaluation cache: probe hits and
// misses plus approximate resident bytes. Documents whose Language uses a
// document-scoped cache implement CacheStatser; the Session and flashbench
// surface the numbers alongside the engine metrics.
type CacheStats struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Entries     int64 `json:"entries"`
	ApproxBytes int64 `json:"approx_bytes"`
	// Evictions is always 0: the caches keep whole-document entries only,
	// which are never evicted (DESIGN.md "Performance architecture"). It
	// stays so that readers of the stats keep compiling.
	Evictions int64 `json:"evictions,omitempty"`
}

// CacheStatser is implemented by documents that expose evaluation-cache
// statistics.
type CacheStatser interface {
	CacheStats() CacheStats
}

// Document is a concrete document of some domain, paired with the domain's
// DSL.
type Document interface {
	// WholeRegion returns the largest region of the document (D.Region).
	WholeRegion() region.Region
	// Language returns the document's data-extraction DSL.
	Language() Language
}

// Spanner is implemented by documents that can compute a minimal covering
// region of two regions. It enables bottom-up structure inference (§3 of
// the paper): proposing non-leaf field regions from the materialized
// highlighting of their descendants.
type Spanner interface {
	Span(a, b region.Region) (region.Region, error)
}

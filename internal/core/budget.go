package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// SynthBudget bounds one synthesis call. The zero value means unlimited.
// Budgets make interactive synthesis responsive under pathological example
// sets: when a bound trips, learners stop exploring and return the
// consistent programs found so far instead of spinning (graceful
// degradation; the engine surfaces the truncation as a PartialResult).
type SynthBudget struct {
	// Deadline is the wall-clock bound of the call. A context deadline, if
	// earlier, takes precedence. Zero means no deadline beyond the context's.
	Deadline time.Time
	// MaxCandidates bounds the number of candidate programs explored
	// (generated and checked) across the call. 0 means unlimited.
	MaxCandidates int64
}

// Exhaustion reasons reported by Budget.Reason.
const (
	ReasonDeadline   = "deadline"
	ReasonCancelled  = "cancelled"
	ReasonCandidates = "candidates"
	// ReasonInjected marks a budget tripped by the fault-injection layer
	// (faults.SiteBudget), so chaos-induced truncation is distinguishable
	// from organic exhaustion in partial results and batch records.
	ReasonInjected = "injected"
)

// Budget is the mutable state of one budgeted synthesis call. All methods
// are safe for concurrent use and nil-safe: a nil *Budget behaves as
// unlimited, so hot loops can check unconditionally.
type Budget struct {
	deadline      time.Time
	maxCandidates int64
	done          <-chan struct{}

	explored  atomic.Int64
	ticks     atomic.Int64
	tripped   atomic.Bool
	reasonVal atomic.Value // string

	truncMu sync.Mutex
	trunc   []string // phases that cut ranking short, deduped, in first-hit order
}

// timeCheckInterval is how many Exhausted calls pass between wall-clock
// probes; time.Now is too expensive for the innermost loops.
const timeCheckInterval = 64

// budgetKey keys the *Budget installed in a context.
type budgetKey struct{}

// WithBudget derives a context carrying a fresh Budget enforcing b, merged
// with any deadline already on ctx. The returned Budget is the per-call
// state the caller inspects after synthesis.
func WithBudget(ctx context.Context, b SynthBudget) (context.Context, *Budget) {
	bud := &Budget{
		deadline:      b.Deadline,
		maxCandidates: b.MaxCandidates,
		done:          ctx.Done(),
	}
	if d, ok := ctx.Deadline(); ok && (bud.deadline.IsZero() || d.Before(bud.deadline)) {
		bud.deadline = d
	}
	return context.WithValue(ctx, budgetKey{}, bud), bud
}

// BudgetFrom returns the Budget carried by the context, or nil (meaning
// unlimited) when none is installed.
func BudgetFrom(ctx context.Context) *Budget {
	if ctx == nil {
		return nil
	}
	b, _ := ctx.Value(budgetKey{}).(*Budget)
	return b
}

// Exhausted reports whether the budget has tripped, probing the wall clock
// and the context's cancellation channel every timeCheckInterval calls.
// Learner hot loops call it once per candidate and stop exploring — but
// keep what they already produced — when it returns true.
func (b *Budget) Exhausted() bool {
	if b == nil {
		return false
	}
	if b.tripped.Load() {
		return true
	}
	if b.ticks.Add(1)%timeCheckInterval != 0 {
		return false
	}
	return b.checkNow()
}

// ExhaustedNow is Exhausted with an unconditional wall-clock probe, for
// loop boundaries where each iteration is expensive (candidate validation,
// per-class Merge learning).
func (b *Budget) ExhaustedNow() bool {
	if b == nil {
		return false
	}
	if b.tripped.Load() {
		return true
	}
	return b.checkNow()
}

func (b *Budget) checkNow() bool {
	if b.done != nil {
		select {
		case <-b.done:
			b.trip(ReasonCancelled)
			return true
		default:
		}
	}
	if !b.deadline.IsZero() && !time.Now().Before(b.deadline) {
		b.trip(ReasonDeadline)
		return true
	}
	return false
}

// AddCandidates records n candidate programs explored; crossing
// MaxCandidates trips the budget.
func (b *Budget) AddCandidates(n int64) {
	if b == nil || n <= 0 {
		return
	}
	total := b.explored.Add(n)
	if b.maxCandidates > 0 && total >= b.maxCandidates {
		b.trip(ReasonCandidates)
	}
}

// Explored returns the number of candidate programs recorded so far.
func (b *Budget) Explored() int64 {
	if b == nil {
		return 0
	}
	return b.explored.Load()
}

// Remaining returns the time left before the budget's deadline, and
// whether a deadline is set at all. It is the "budget remaining" quantity
// recorded on trace spans.
func (b *Budget) Remaining() (time.Duration, bool) {
	if b == nil || b.deadline.IsZero() {
		return 0, false
	}
	return time.Until(b.deadline), true
}

// NoteTruncation records that the named synthesis phase stopped scanning
// candidates because the budget was exhausted, degrading its result to the
// verified prefix. Phases are deduped and kept in first-hit order; the
// engine surfaces them on the call's PartialResult so a truncated ranking
// is distinguishable from a complete one that merely found few programs.
func (b *Budget) NoteTruncation(phase string) {
	if b == nil || phase == "" {
		return
	}
	b.truncMu.Lock()
	defer b.truncMu.Unlock()
	for _, t := range b.trunc {
		if t == phase {
			return
		}
	}
	b.trunc = append(b.trunc, phase)
}

// Truncations returns the phases that recorded a ranking truncation, in
// first-hit order (nil when none did).
func (b *Budget) Truncations() []string {
	if b == nil {
		return nil
	}
	b.truncMu.Lock()
	defer b.truncMu.Unlock()
	if len(b.trunc) == 0 {
		return nil
	}
	out := make([]string, len(b.trunc))
	copy(out, b.trunc)
	return out
}

// StopFunc returns a callback reporting budget exhaustion (unconditional
// clock probe), for handing to context-unaware helper packages below the
// framework layer (e.g. tokens position learning). Safe when no budget is
// installed: the callback then always reports false.
func StopFunc(ctx context.Context) func() bool {
	return BudgetFrom(ctx).ExhaustedNow
}

func (b *Budget) trip(reason string) {
	if b.tripped.CompareAndSwap(false, true) {
		b.reasonVal.Store(reason)
	}
}

// Trip exhausts the budget immediately with the given reason. It exists
// for layers above the learners — fault injection, admin kill switches —
// that need to force the graceful-degradation path; the first reason to
// trip wins, matching the internal semantics.
func (b *Budget) Trip(reason string) {
	if b == nil {
		return
	}
	b.trip(reason)
}

// Reason returns why the budget tripped ("" when it has not).
func (b *Budget) Reason() string {
	if b == nil || !b.tripped.Load() {
		return ""
	}
	if r, ok := b.reasonVal.Load().(string); ok {
		return r
	}
	return ""
}

package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"flashextract/internal/core"
	"flashextract/internal/trace"
)

// firstPassing returns the lowest index i in [0, n) for which try(i) is
// true, or -1 when no index passes — the same answer as the serial loop
//
//	for i := 0; i < n; i++ { if try(i) { return i } }
//
// but with independent try calls fanned across a GOMAXPROCS-bounded worker
// pool. try must be safe for concurrent calls and deterministic per index.
// At GOMAXPROCS=1 it is that serial loop, the reference the differential
// tests compare the pool against.
//
// Ranking stays bit-identical to serial execution: candidates are claimed
// in index order off a shared counter, a worker abandons its claim once
// some lower index has already passed, and the final answer is the minimum
// passing index. Every index below the returned one has been tried and
// rejected, exactly as in the serial loop; indexes above it may be skipped
// (early cancellation).
//
// Worker lifetime is tied to the context: when ctx is cancelled or the
// call's budget trips, workers stop claiming new candidates and the call
// returns after at most one in-flight try each — no goroutine outlives
// firstPassing, so an abandoning caller leaks nothing. A truncated scan is
// reported via complete=false: the returned index is then the best passing
// candidate found before the interruption (or -1), and lower-ranked
// untried candidates may exist, so the serial-equivalence guarantee only
// holds when complete is true.
func firstPassing(ctx context.Context, n int, try func(int) bool) (idx int, complete bool) {
	if n <= 0 {
		return -1, true
	}
	bud := core.BudgetFrom(ctx)
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
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

	var (
		next      atomic.Int64 // next candidate index to claim
		best      atomic.Int64 // lowest passing index found so far
		truncated atomic.Bool  // a worker stopped before exhausting its claims
		wg        sync.WaitGroup
	)
	best.Store(int64(n))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker gets its own child span of the validation scan,
			// so traces show how candidate checks spread across goroutines.
			_, wsp := trace.Start(ctx, "validate_worker")
			tried := int64(0)
			defer func() {
				wsp.SetInt("worker", int64(w))
				wsp.SetInt("tried", tried)
				wsp.End()
			}()
			for {
				if ctx.Err() != nil || bud.ExhaustedNow() {
					truncated.Store(true)
					return
				}
				i := next.Add(1) - 1
				if i >= int64(n) || i >= best.Load() {
					return
				}
				tried++
				if !try(int(i)) {
					continue
				}
				for {
					cur := best.Load()
					if i >= cur || best.CompareAndSwap(cur, i) {
						break
					}
				}
			}
		}(w)
	}
	wg.Wait()
	b := best.Load()
	if truncated.Load() {
		if b < int64(n) {
			return int(b), false
		}
		return -1, false
	}
	if b < int64(n) {
		return int(b), true
	}
	return -1, true
}

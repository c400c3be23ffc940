// Monitor is the introspection seam of the batch runtime: a lock-light
// aggregation point the worker pool updates as it runs, read concurrently
// by the admin server's /healthz and /trace/last endpoints. All counters
// are atomics, so observing a live run never contends with it; the only
// lock guards the bounded ring of recently finished document traces.
package batch

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"flashextract/internal/trace"
)

// DefaultTraceRing bounds how many finished document span trees a Monitor
// retains for /trace/last when Monitor.TraceRing is zero.
const DefaultTraceRing = 32

// Monitor aggregates the live state of the batch runtime. One Monitor can
// outlive any single Run: a persistent server hands the same instance to
// every run it launches, so the counters accumulate across requests and
// /healthz reports the process's whole serving history. The zero value is
// ready to use; pass it via Options.Monitor and hand the same instance to
// the admin server. A nil *Monitor is a valid no-op receiver throughout,
// so the batch hot path carries no conditionals at call sites.
//
// The monitor holds liveness and conservation state only; what the run's
// records were (retries, shortcuts, shard drops) is counted once, into the
// run Summary and the metrics sink, which the admin server serves at
// /metrics.
type Monitor struct {
	// TraceRing bounds the finished document span trees retained for
	// /trace/last; 0 means DefaultTraceRing. Set it before the monitor's
	// first run.
	TraceRing int

	workersAlive atomic.Int64
	submitted    atomic.Int64
	inFlight     atomic.Int64
	processed    atomic.Int64
	failed       atomic.Int64
	activeRuns   atomic.Int64 // Runs started and not yet drained
	runs         atomic.Int64 // total Runs ever started
	started      atomic.Int64 // unix nanos of the first Run start; 0 = never
	finished     atomic.Int64 // unix nanos of the last drain; 0 = running

	mu   sync.Mutex
	ring []*trace.Span // finished document root spans, oldest first
}

// Health is the point-in-time snapshot served by /healthz.
type Health struct {
	// Status is "idle" before the run starts, "running" while workers are
	// alive, and "done" after Run returns.
	Status string `json:"status"`
	// WorkersAlive is the number of worker goroutines currently running.
	WorkersAlive int64 `json:"workers_alive"`
	// Submitted is the number of documents handed to a worker.
	Submitted int64 `json:"submitted"`
	// InFlight is the number of documents being processed right now.
	InFlight int64 `json:"in_flight"`
	// Processed is the number of documents finished (results and errors).
	Processed int64 `json:"processed"`
	// Failed is the number of error records among them.
	Failed int64 `json:"failed"`
	// Runs is the number of batch runs this monitor has seen — 1 for a
	// one-shot batch, one per scan/scan_batch request in the server.
	Runs int64 `json:"runs"`
	// UptimeSeconds is the time since the first run started (0 before it).
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// runStarted marks the beginning of one batch run. Runs may overlap: the
// monitor counts active runs and reports "running" while any is live.
func (m *Monitor) runStarted(now time.Time) {
	if m == nil {
		return
	}
	m.activeRuns.Add(1)
	m.runs.Add(1)
	m.started.CompareAndSwap(0, now.UnixNano())
	m.finished.Store(0)
}

// runFinished marks the end of one batch run; the finish timestamp is
// recorded when the last overlapping run drains.
func (m *Monitor) runFinished(now time.Time) {
	if m == nil {
		return
	}
	if m.activeRuns.Add(-1) == 0 {
		m.finished.Store(now.UnixNano())
	}
}

// workerUp / workerDown track worker-pool liveness.
func (m *Monitor) workerUp() {
	if m != nil {
		m.workersAlive.Add(1)
	}
}

func (m *Monitor) workerDown() {
	if m != nil {
		m.workersAlive.Add(-1)
	}
}

// docSubmitted marks one document handed to a worker. Together with
// docStarted/docFinished it upholds the conservation invariant checked by
// ConservationError.
func (m *Monitor) docSubmitted() {
	if m != nil {
		m.submitted.Add(1)
	}
}

// docStarted marks one document entering processing.
func (m *Monitor) docStarted() {
	if m != nil {
		m.inFlight.Add(1)
	}
}

// docFinished marks one document leaving processing and records its
// outcome and, when tracing was on, its finished root span.
func (m *Monitor) docFinished(ok bool, root *trace.Span) {
	if m == nil {
		return
	}
	m.inFlight.Add(-1)
	m.processed.Add(1)
	if !ok {
		m.failed.Add(1)
	}
	m.RecordTrace(root)
}

// RecordTrace inserts a finished document root span into the trace ring,
// which keeps the newest TraceRing trees (nil spans are ignored). The batch
// runtime calls this for every traced document; embedders running
// documents outside Run can use it to surface their own traces through
// /trace/last.
func (m *Monitor) RecordTrace(root *trace.Span) {
	if m == nil || root == nil {
		return
	}
	bound := m.TraceRing
	if bound <= 0 {
		bound = DefaultTraceRing
	}
	m.mu.Lock()
	m.ring = append(m.ring, root)
	if over := len(m.ring) - bound; over > 0 {
		m.ring = append(m.ring[:0], m.ring[over:]...)
	}
	m.mu.Unlock()
}

// ConservationError checks the counter-conservation invariant of a
// drained monitor: every document handed to a worker was processed exactly
// once (processed == submitted) and nothing is left in flight. Run calls
// it after the results channel closes; while any other run sharing the
// monitor is still active the check is vacuous (documents are legitimately
// in flight) and nil is returned — the last run to drain judges the whole
// history. A nil error means the invariant holds; nil Monitors always
// hold it.
func (m *Monitor) ConservationError() error {
	if m == nil {
		return nil
	}
	if m.activeRuns.Load() > 0 {
		return nil
	}
	sub, inf, proc := m.submitted.Load(), m.inFlight.Load(), m.processed.Load()
	if inf != 0 || proc != sub {
		return fmt.Errorf("batch: counter conservation violated: submitted=%d processed=%d in_flight=%d", sub, proc, inf)
	}
	return nil
}

// Health returns the current liveness snapshot.
func (m *Monitor) Health() Health {
	if m == nil {
		return Health{Status: "idle"}
	}
	h := Health{
		WorkersAlive: m.workersAlive.Load(),
		Submitted:    m.submitted.Load(),
		InFlight:     m.inFlight.Load(),
		Processed:    m.processed.Load(),
		Failed:       m.failed.Load(),
		Runs:         m.runs.Load(),
	}
	started := m.started.Load()
	finished := m.finished.Load()
	switch {
	case started == 0:
		h.Status = "idle"
	case m.activeRuns.Load() > 0 || finished == 0:
		h.Status = "running"
		h.UptimeSeconds = time.Since(time.Unix(0, started)).Seconds()
	default:
		h.Status = "done"
		h.UptimeSeconds = time.Unix(0, finished).Sub(time.Unix(0, started)).Seconds()
	}
	return h
}

// RecentTraces returns up to n of the most recently finished document span
// trees, newest first. n <= 0 means all retained traces.
func (m *Monitor) RecentTraces(n int) []*trace.Span {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	k := len(m.ring)
	if n > 0 && n < k {
		k = n
	}
	out := make([]*trace.Span, 0, k)
	for i := len(m.ring) - 1; i >= len(m.ring)-k; i-- {
		out = append(out, m.ring[i])
	}
	return out
}

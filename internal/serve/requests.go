package serve

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"

	"flashextract/internal/trace"
)

// DefaultSlowRequests bounds the slow-request ring when
// Options.SlowRequests is non-positive.
const DefaultSlowRequests = 16

// RequestsSchema identifies the /requests response envelope.
const RequestsSchema = "flashextract-requests/v1"

// AccessLogSchema identifies access-log NDJSON lines.
const AccessLogSchema = "flashextract-access-log/v1"

// RequestTrace is one retained slow request: its identity, outcome, and —
// when tracing is on — the request root span tree, documents included.
type RequestTrace struct {
	// RequestID is the server-minted id correlating the request across the
	// access log, span attributes, and batch log lines.
	RequestID string `json:"request_id"`
	// ID is the client-supplied frame id (may be empty).
	ID string `json:"id,omitempty"`
	Op string `json:"op"`
	// Program is the requested program reference.
	Program string `json:"program,omitempty"`
	// Docs is the number of documents the request admitted.
	Docs int `json:"docs"`
	// Status is "ok" or the error frame's code.
	Status    string  `json:"status"`
	LatencyMS float64 `json:"latency_ms"`
	// Trace is the request root span tree (flashextract-trace/v1 node),
	// null when tracing is off.
	Trace *trace.Node `json:"trace,omitempty"`
}

// requestsFile is the /requests response envelope.
type requestsFile struct {
	Schema   string         `json:"schema"`
	Requests []RequestTrace `json:"requests"`
}

// slowRing retains the cap slowest extraction requests seen so far —
// tail-latency capture: the requests worth explaining are the ones that
// were slow, and their traces are gone from the per-doc ring by the time
// anyone asks.
type slowRing struct {
	mu  sync.Mutex
	cap int
	rs  []RequestTrace
}

func newSlowRing(cap int) *slowRing {
	return &slowRing{cap: cap}
}

// record offers one finished request to the ring; it is kept if the ring
// has room or the request is slower than the current fastest entry.
func (r *slowRing) record(rt RequestTrace) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rs = append(r.rs, rt)
	sort.SliceStable(r.rs, func(i, j int) bool { return r.rs[i].LatencyMS > r.rs[j].LatencyMS })
	if len(r.rs) > r.cap {
		r.rs = r.rs[:r.cap]
	}
}

// snapshot returns the retained requests, slowest first.
func (r *slowRing) snapshot() []RequestTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]RequestTrace, len(r.rs))
	copy(out, r.rs)
	return out
}

// accessEntry is one flashextract-access-log/v1 NDJSON line: the
// structured access record of one handled frame.
type accessEntry struct {
	Schema    string  `json:"schema"`
	RequestID string  `json:"request_id"`
	ID        string  `json:"id,omitempty"`
	Op        string  `json:"op,omitempty"`
	Program   string  `json:"program,omitempty"`
	Docs      int     `json:"docs"`
	Status    string  `json:"status"`
	LatencyMS float64 `json:"latency_ms"`
	// Bytes is the marshaled size of the response frame.
	Bytes int `json:"bytes"`
}

// accessLog serializes access-log lines onto one writer. A nil writer
// disables it — write is then a no-op, so disabled servers never pay the
// response re-marshal that sizes the bytes field.
type accessLog struct {
	mu sync.Mutex
	w  io.Writer
}

func newAccessLog(w io.Writer) *accessLog {
	return &accessLog{w: w}
}

func (a *accessLog) write(ri *reqInfo, status string, lat time.Duration, resp *Response) {
	if a.w == nil {
		return
	}
	n := 0
	if b, err := json.Marshal(resp); err == nil {
		n = len(b) + 1 // the newline the transport appends
	}
	line, err := json.Marshal(accessEntry{
		Schema:    AccessLogSchema,
		RequestID: ri.id,
		ID:        ri.req.ID,
		Op:        ri.req.Op,
		Program:   ri.req.Program,
		Docs:      ri.docs,
		Status:    status,
		LatencyMS: float64(lat) / float64(time.Millisecond),
		Bytes:     n,
	})
	if err != nil {
		return
	}
	line = append(line, '\n')
	a.mu.Lock()
	defer a.mu.Unlock()
	_, _ = a.w.Write(line)
}

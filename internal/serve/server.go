package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"flashextract/internal/batch"
	"flashextract/internal/faults"
	"flashextract/internal/logx"
	"flashextract/internal/metrics"
	"flashextract/internal/reqid"
	"flashextract/internal/trace"
)

// DefaultMaxInflight bounds the documents admitted across all in-flight
// requests when Options.MaxInflight is non-positive.
const DefaultMaxInflight = 64

// Options configures a Server.
type Options struct {
	// Registry is the program catalog requests resolve against (required).
	Registry *Registry
	// MaxInflight bounds the documents admitted across all concurrently
	// running requests — the server's backpressure: a request whose
	// documents do not fit is answered with an overloaded error frame
	// instead of being queued. <= 0 selects DefaultMaxInflight.
	MaxInflight int
	// Workers bounds each scan_batch's worker pool (scan always runs one
	// worker); 0 means GOMAXPROCS, exactly as in the batch CLI.
	Workers int
	// DefaultTimeout bounds each document's run when a request carries no
	// timeout_ms (0 = unbounded). Rides the batch runtime's core.Budget
	// plumbing.
	DefaultTimeout time.Duration
	// Metrics receives the serve_* counters and frame latency histogram, on
	// top of the batch_* metrics the runs themselves record; nil means none.
	Metrics metrics.Sink
	// Monitor is shared by every run the server launches, so /healthz
	// aggregates the process's whole serving history.
	Monitor *batch.Monitor
	// Trace / Chaos / SelfCheck / Prefilter configure each run exactly as
	// the one-shot batch CLI flags do.
	Trace     bool
	Chaos     *faults.Injector
	SelfCheck bool
	Prefilter bool
	// AccessLog receives one flashextract-access-log/v1 NDJSON line per
	// handled frame: request id, op, program, document count, status,
	// latency, and response bytes. nil disables access logging.
	AccessLog io.Writer
	// SlowRequests bounds the ring of slowest requests whose traces the
	// /requests admin endpoint retains; <= 0 selects DefaultSlowRequests.
	SlowRequests int
}

// Server is the long-lived extraction service: it answers protocol frames
// (HandleLine) and serves NDJSON streams (Serve) against a hot-reloadable
// program registry, running every extraction through the batch worker
// pool. One Server handles any number of concurrent streams and requests.
type Server struct {
	opts   Options
	lim    *limiter
	access *accessLog
	slow   *slowRing
}

// New builds a server. The registry must be non-nil (Load it before or
// after — an empty catalog is serveable, every scan just misses).
func New(opts Options) (*Server, error) {
	if opts.Registry == nil {
		return nil, fmt.Errorf("serve: Options.Registry is required")
	}
	if opts.MaxInflight <= 0 {
		opts.MaxInflight = DefaultMaxInflight
	}
	if opts.Metrics == nil {
		opts.Metrics = metrics.Nop
	}
	if opts.SlowRequests <= 0 {
		opts.SlowRequests = DefaultSlowRequests
	}
	return &Server{
		opts:   opts,
		lim:    &limiter{cap: opts.MaxInflight},
		access: newAccessLog(opts.AccessLog),
		slow:   newSlowRing(opts.SlowRequests),
	}, nil
}

// Registry returns the server's program registry.
func (s *Server) Registry() *Registry { return s.opts.Registry }

// Reload rescans the program directory — the reload op and the SIGHUP
// handler share it. On failure the previous catalog stays live.
func (s *Server) Reload() (added, removed int, err error) {
	added, removed, err = s.opts.Registry.Load()
	if err == nil {
		s.opts.Metrics.Count(metrics.ServeReloads, 1)
	}
	return added, removed, err
}

// Ready returns the unsolicited frame the server emits when a stream
// opens: the protocol identifier and the catalog size.
func (s *Server) Ready() Response {
	return Response{Op: OpReady, OK: true, Protocol: Protocol, ProgramCount: s.opts.Registry.Len()}
}

// limiter is the in-flight document budget: a try-acquire semaphore —
// admission never blocks, it either fits or fails (the overloaded frame).
type limiter struct {
	mu        sync.Mutex
	cap, used int
}

func (l *limiter) tryAcquire(n int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.used+n > l.cap {
		return false
	}
	l.used += n
	return true
}

func (l *limiter) release(n int) {
	l.mu.Lock()
	l.used -= n
	l.mu.Unlock()
}

// InflightDocs reports the documents currently admitted (test introspection).
func (s *Server) InflightDocs() int {
	s.lim.mu.Lock()
	defer s.lim.mu.Unlock()
	return s.lim.used
}

// scanWork is an admitted scan/scan_batch: program resolved, sources
// expanded, and docs in-flight units held until run releases them.
type scanWork struct {
	req     Request
	entry   *Entry
	sources []batch.Source
	docs    int
	ordered bool
}

// prepare validates a scan/scan_batch request, resolves its program in the
// current catalog, expands its sources, and admits it against the
// in-flight limit. It returns the admitted work, or the error frame that
// answers the request. Resolution is synchronous with frame arrival, so a
// later reload never changes which version an already-read request runs —
// in-flight requests finish on the version they resolved.
func (s *Server) prepare(req Request) (*scanWork, Response) {
	if req.Program == "" {
		return nil, errorResponse(req.ID, req.Op, CodeBadRequest,
			fmt.Sprintf("serve: %s requires a program reference", req.Op))
	}
	entry, err := s.opts.Registry.Resolve(req.Program)
	if err != nil {
		code := CodeUnknownProgram
		if errors.Is(err, ErrVersionMismatch) {
			code = CodeVersionMismatch
		}
		return nil, errorResponse(req.ID, req.Op, code, err.Error())
	}
	w := &scanWork{req: req, entry: entry, ordered: true}
	switch req.Op {
	case OpScan, OpExplain:
		name := req.DocName
		if name == "" {
			name = "doc"
		}
		w.sources = []batch.Source{batch.StringSource(name, req.Content)}
	case OpScanBatch:
		if len(req.Docs) == 0 && len(req.Globs) == 0 {
			return nil, errorResponse(req.ID, req.Op, CodeBadRequest,
				"serve: scan_batch requires docs or globs")
		}
		for i, d := range req.Docs {
			name := d.Name
			if name == "" {
				name = fmt.Sprintf("doc%d", i)
			}
			w.sources = append(w.sources, batch.StringSource(name, d.Content))
		}
		// Globs expand exactly as the batch CLI's arguments do, so
		// scan_batch over globs is byte-identical to a one-shot batch.
		files, err := batch.FileSources(req.Globs)
		if err != nil {
			return nil, errorResponse(req.ID, req.Op, CodeBadRequest, err.Error())
		}
		w.sources = append(w.sources, files...)
		w.ordered = req.Ordered == nil || *req.Ordered
	}
	w.docs = len(w.sources)
	if !s.lim.tryAcquire(w.docs) {
		s.opts.Metrics.Count(metrics.ServeOverloaded, 1)
		return nil, errorResponse(req.ID, req.Op, CodeOverloaded,
			fmt.Sprintf("serve: admitting %d document(s) would exceed the in-flight limit of %d", w.docs, s.opts.MaxInflight))
	}
	return w, Response{}
}

// run executes admitted work through the batch worker pool, capturing the
// record stream. The pool, chaos sites, metrics, monitor, and tracing are
// exactly the one-shot batch runtime's — only the output goes into the
// response frame instead of stdout.
func (s *Server) run(ctx context.Context, w *scanWork) Response {
	defer s.lim.release(w.docs)
	timeout := s.opts.DefaultTimeout
	if w.req.TimeoutMS > 0 {
		timeout = time.Duration(w.req.TimeoutMS) * time.Millisecond
	}
	workers := s.opts.Workers
	if w.req.Op == OpScan || w.req.Op == OpExplain {
		workers = 1
	}
	var buf, provBuf bytes.Buffer
	opts := batch.Options{
		Programs:   w.entry,
		DocType:    w.entry.DocType,
		Workers:    workers,
		DocTimeout: timeout,
		Ordered:    w.ordered,
		Metrics:    s.opts.Metrics,
		Monitor:    s.opts.Monitor,
		Trace:      s.opts.Trace,
		Chaos:      s.opts.Chaos,
		SelfCheck:  s.opts.SelfCheck,
		Prefilter:  s.opts.Prefilter,
	}
	if w.req.Op == OpExplain {
		opts.ProvenanceOut = &provBuf
	}
	sum, err := batch.Run(ctx, opts, w.sources, &buf)
	w.entry.noteScan(int64(sum.Docs), int64(sum.Errors))
	if err != nil {
		return errorResponse(w.req.ID, w.req.Op, CodeInternal, err.Error())
	}
	records := splitRecords(buf.Bytes())
	if w.req.Op == OpScanBatch {
		return Response{ID: w.req.ID, Op: w.req.Op, OK: true,
			Records: records,
			Summary: &Summary{Docs: sum.Docs, Errors: sum.Errors, Skipped: sum.Skipped,
				Retries: sum.Retries, PrefilterSkipped: sum.PrefilterSkipped}}
	}
	// scan/explain: exactly one document went in, so exactly one record came
	// out — unless the run was cancelled before the document was dispatched.
	if len(records) == 0 {
		return errorResponse(w.req.ID, w.req.Op, CodeCancelled, "serve: cancelled before the document was dispatched")
	}
	explains := splitRecords(provBuf.Bytes())
	line := records[0]
	var meta struct {
		OK    bool   `json:"ok"`
		Kind  string `json:"kind"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(line, &meta); err != nil {
		return errorResponse(w.req.ID, w.req.Op, CodeInternal, "serve: unreadable batch record: "+err.Error())
	}
	if !meta.OK {
		resp := errorResponse(w.req.ID, w.req.Op, codeForKind(meta.Kind), meta.Error)
		resp.Record = line
		resp.Explains = explains
		return resp
	}
	return Response{ID: w.req.ID, Op: w.req.Op, OK: true, Record: line, Explains: explains}
}

// splitRecords cuts a captured NDJSON stream into its lines.
func splitRecords(stream []byte) []json.RawMessage {
	var out []json.RawMessage
	for _, line := range bytes.Split(stream, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		out = append(out, json.RawMessage(append([]byte(nil), line...)))
	}
	return out
}

// handleSync answers the synchronous ops: list_programs, reload, and the
// unknown-op error. scan/scan_batch go through prepare/run; close is
// transport-level and handled by the caller.
func (s *Server) handleSync(req Request) Response {
	switch req.Op {
	case OpListPrograms:
		entries := s.opts.Registry.List()
		infos := make([]ProgramInfo, 0, len(entries))
		for _, e := range entries {
			infos = append(infos, e.Info())
		}
		return Response{ID: req.ID, Op: req.Op, OK: true, ProgramCount: len(infos), Programs: infos}
	case OpReload:
		added, removed, err := s.Reload()
		if err != nil {
			return errorResponse(req.ID, req.Op, CodeReloadFailed, err.Error())
		}
		return Response{ID: req.ID, Op: req.Op, OK: true,
			ProgramCount: s.opts.Registry.Len(), Added: added, Removed: removed}
	default:
		return errorResponse(req.ID, req.Op, CodeUnknownOp, fmt.Sprintf("serve: unknown op %q", req.Op))
	}
}

// scanOp reports whether op is an extraction request (the ops that admit
// documents, run the batch pool, and enter the slow-request ring).
func scanOp(op string) bool {
	return op == OpScan || op == OpScanBatch || op == OpExplain
}

// reqInfo is one request in progress, minted at frame receipt: the decoded
// request, its id and request-scoped context, the start time, the
// admitted extraction with its document count, and the request root span
// (tracing on, extraction ops only).
type reqInfo struct {
	req   Request
	id    string
	ctx   context.Context
	start time.Time
	work  *scanWork
	docs  int
	root  *trace.Span
}

// accept decodes one frame and starts its request: it mints the request
// id, installs it in the context, and — for extraction ops under tracing —
// starts the request root span that processDoc parents each document's
// span under. Every frame that runs no extraction is answered on the spot
// (malformed input, a refused scan, list_programs, reload, an unknown op);
// the rest is the transport's: an admitted extraction (ri.work set) to
// run, or close.
func (s *Server) accept(ctx context.Context, line []byte) (ri *reqInfo, resp Response, answered bool) {
	start := time.Now()
	req, ferr := decodeRequest(line)
	ri = &reqInfo{req: req, id: reqid.New(), start: start}
	ri.ctx = reqid.Into(ctx, ri.id)
	if s.opts.Trace && scanOp(req.Op) {
		ri.ctx, ri.root = trace.NewTracer().StartRoot(ri.ctx, "request:"+req.Op)
		ri.root.SetString("request_id", ri.id)
	}
	switch {
	case ferr != nil:
		return ri, Response{ID: req.ID, Op: req.Op, Error: ferr}, true
	case scanOp(req.Op):
		work, eresp := s.prepare(req)
		if work == nil {
			return ri, eresp, true
		}
		ri.work, ri.docs = work, work.docs
		return ri, Response{}, false
	case req.Op == OpClose:
		return ri, Response{}, false
	default:
		return ri, s.handleSync(req), true
	}
}

// observe records one handled frame everywhere the request is visible:
// the serve metrics, the request root span, the slow-request ring, and
// the access log.
func (s *Server) observe(ri *reqInfo, resp *Response) {
	req := ri.req
	lat := time.Since(ri.start)
	s.opts.Metrics.Count(metrics.ServeRequests, 1)
	if resp.Error != nil {
		s.opts.Metrics.Count(metrics.ServeErrors, 1)
	}
	if req.Op == OpExplain {
		s.opts.Metrics.Count(metrics.ServeExplainRequests, 1)
		if resp.Error != nil {
			s.opts.Metrics.Count(metrics.ServeExplainErrors, 1)
		}
	}
	s.opts.Metrics.Observe(metrics.ServeFrameSeconds, lat.Seconds())
	status := "ok"
	if resp.Error != nil {
		status = resp.Error.Code
	}
	var node *trace.Node
	if ri.root != nil {
		ri.root.SetString("op", req.Op)
		if req.Program != "" {
			ri.root.SetString("program", req.Program)
		}
		ri.root.SetInt("docs", int64(ri.docs))
		ri.root.SetString("status", status)
		ri.root.End()
		node = trace.ToNode(ri.root)
	}
	if scanOp(req.Op) {
		s.slow.record(RequestTrace{
			RequestID: ri.id,
			ID:        req.ID,
			Op:        req.Op,
			Program:   req.Program,
			Docs:      ri.docs,
			Status:    status,
			LatencyMS: float64(lat) / float64(time.Millisecond),
			Trace:     node,
		})
	}
	s.access.write(ri, status, lat, resp)
}

// RequestsHandler serves the slow-request ring as
// flashextract-requests/v1: the N slowest extraction requests handled so
// far, slowest first, each with its request root trace when tracing is
// on. It is mounted on the admin endpoint as /requests.
func (s *Server) RequestsHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		file := requestsFile{Schema: RequestsSchema, Requests: s.slow.snapshot()}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(file)
	}
}

// HandleLine answers one protocol frame synchronously: every input yields
// exactly one response frame, malformed input included. It backs the HTTP
// /rpc transport and the protocol fuzzer; the stream transport (Serve)
// accepts frames the same way but overlaps scan/scan_batch requests. close
// is stream-level flow control and is rejected here.
func (s *Server) HandleLine(ctx context.Context, line []byte) Response {
	ri, resp, answered := s.accept(ctx, line)
	switch {
	case answered:
	case ri.work != nil:
		resp = s.run(ri.ctx, ri.work)
	default: // close
		resp = errorResponse(ri.req.ID, ri.req.Op, CodeBadRequest, "serve: close is only valid on the stream transport")
	}
	s.observe(ri, &resp)
	return resp
}

// maxUnwritten bounds the response frames of one stream that are accepted
// but not yet written: with this many outstanding, Serve reads no further
// request until the client reads a response.
const maxUnwritten = 64

// Serve speaks the NDJSON stream protocol over in/out: the ready frame,
// then one response frame per request line. scan and scan_batch run
// concurrently (bounded by the in-flight document limit); list_programs,
// reload, and close are handled in arrival order, and close drains every
// in-flight request before its response — the last frame written. A
// client may send frames before reading any response: one goroutine
// writes the frames, so intake never waits on a blocked write until
// maxUnwritten responses are outstanding.
//
// Serve returns when the input reaches EOF, a close frame is handled, the
// context is cancelled (in-flight requests drain with cancelled records),
// or a write to out fails. A reader blocked on an un-closed input is the
// caller's to unblock (close the input when cancelling the context).
func (s *Server) Serve(ctx context.Context, in io.Reader, out io.Writer) error {
	log := logx.From(ctx)
	// The writer takes frames from a bounded queue, so a write blocked on a
	// client that is still sending stalls neither intake nor the scans
	// finishing behind it. slots holds a token per frame accepted and not
	// yet written, so the queue never fills. The first failed write sticks,
	// readable without waiting on the writer; later frames are dropped.
	slots := make(chan struct{}, maxUnwritten)
	frames := make(chan []byte, maxUnwritten)
	written := make(chan struct{})
	var werr atomic.Pointer[error]
	go func() {
		defer close(written)
		for line := range frames {
			if werr.Load() == nil {
				if _, err := out.Write(line); err != nil {
					err = fmt.Errorf("serve: writing response: %w", err)
					werr.Store(&err)
				}
			}
			<-slots
		}
	}()
	writeErr := func() error {
		if p := werr.Load(); p != nil {
			return *p
		}
		return nil
	}
	send := func(resp Response) {
		line, err := json.Marshal(resp)
		if err != nil {
			// A response that cannot marshal is a server bug; degrade to a
			// crafted internal error frame rather than dropping the frame.
			line, _ = json.Marshal(errorResponse(resp.ID, resp.Op, CodeInternal, "serve: response did not marshal"))
		}
		frames <- append(line, '\n')
	}
	reply := func(ri *reqInfo, resp Response) {
		s.observe(ri, &resp)
		send(resp)
	}
	var wg sync.WaitGroup
	// finish lets the in-flight requests answer and their frames be written
	// (or dropped), so nothing Serve started outlives it.
	finish := func() error {
		wg.Wait()
		close(frames)
		<-written
		return writeErr()
	}
	slots <- struct{}{}
	send(s.Ready())
	log.Info("serve stream open", "programs", s.opts.Registry.Len(),
		"max_inflight", s.opts.MaxInflight)

	// The reader feeds request lines to the loop; sctx unblocks a reader
	// stuck handing over a line once Serve returns for any reason.
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	lines := make(chan []byte)
	readErr := make(chan error, 1)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(in)
		sc.Buffer(make([]byte, 64*1024), MaxFrameBytes)
		for sc.Scan() {
			line := append([]byte(nil), sc.Bytes()...)
			select {
			case lines <- line:
			case <-sctx.Done():
				return
			}
		}
		readErr <- sc.Err()
	}()

	for {
		select {
		case <-ctx.Done():
			finish()
			log.Info("serve stream cancelled")
			return ctx.Err()
		case line, ok := <-lines:
			if !ok {
				err := finish()
				log.Info("serve stream closed", "reason", "eof")
				select {
				case rerr := <-readErr:
					if rerr != nil {
						return fmt.Errorf("serve: reading input: %w", rerr)
					}
				default:
				}
				return err
			}
			slots <- struct{}{}
			ri, resp, answered := s.accept(ctx, line)
			switch {
			case answered:
				reply(ri, resp)
			case ri.work != nil:
				// Resolved and admitted in frame order; extract concurrently.
				wg.Add(1)
				go func() {
					defer wg.Done()
					reply(ri, s.run(ri.ctx, ri.work))
				}()
			default: // close
				wg.Wait()
				reply(ri, Response{ID: ri.req.ID, Op: OpClose, OK: true})
				log.Info("serve stream closed", "reason", "close frame")
				return finish()
			}
			if writeErr() != nil {
				return finish()
			}
		}
	}
}

// RPCHandler serves the protocol over HTTP: POST one request frame, get
// one response frame — the same handlers as the stream, minus close. It is
// mounted on the admin endpoint as /rpc.
func (s *Server) RPCHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "serve: /rpc takes POST", http.StatusMethodNotAllowed)
			return
		}
		body, err := io.ReadAll(io.LimitReader(r.Body, MaxFrameBytes+1))
		var resp Response
		switch {
		case err != nil:
			resp = errorResponse("", "", CodeBadRequest, "serve: reading request body failed")
		case len(body) > MaxFrameBytes:
			resp = errorResponse("", "", CodeBadRequest, "serve: frame exceeds the size limit")
		default:
			resp = s.HandleLine(r.Context(), bytes.TrimSpace(body))
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		line, merr := json.Marshal(resp)
		if merr != nil {
			line, _ = json.Marshal(errorResponse(resp.ID, resp.Op, CodeInternal, "serve: response did not marshal"))
		}
		_, _ = w.Write(append(line, '\n'))
	}
}

// programsFile is the /programs response envelope.
type programsFile struct {
	Schema   string          `json:"schema"`
	Programs []programStatus `json:"programs"`
}

// programStatus is one catalog entry's live serving state.
type programStatus struct {
	ProgramInfo
	// Compiles counts artifact deserializations: 1 per entry, by Load.
	Compiles int64 `json:"compiles"`
	// Scans / Docs / Errors are the per-program serving counters.
	Scans  int64 `json:"scans"`
	Docs   int64 `json:"docs"`
	Errors int64 `json:"errors"`
}

// ProgramsHandler serves the catalog with per-program serving counters as
// flashextract-serve-programs/v1. It is mounted on the admin endpoint as
// /programs.
func (s *Server) ProgramsHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		entries := s.opts.Registry.List()
		file := programsFile{Schema: "flashextract-serve-programs/v1",
			Programs: make([]programStatus, 0, len(entries))}
		for _, e := range entries {
			file.Programs = append(file.Programs, programStatus{
				ProgramInfo: e.Info(),
				Compiles:    e.Compiles(),
				Scans:       e.Scans(),
				Docs:        e.Docs(),
				Errors:      e.Errors(),
			})
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(file)
	}
}

// Package batch is the serving-path runtime of the repository: it runs a
// saved schema extraction program (engine.SaveSchemaProgram) over a whole
// collection of documents — the "learn once from examples, then run over
// similar files" end state of §2 and §6 of the paper.
//
// The runtime is a bounded worker pool streaming NDJSON: one JSON record
// per input document, written as each document finishes (or in input order
// with Options.Ordered). Failures are isolated per document — a corrupt
// document yields a structured error record, never an aborted batch — and
// each document's run is bounded by Options.DocTimeout through the
// core.Budget/context plumbing of the synthesis stack. Cancelling the
// context (e.g. on SIGINT) drains gracefully: no new documents start,
// in-flight documents finish or trip their budget, and every dispatched
// document still gets exactly one record.
//
// Every emitted line is machine-checkably valid JSON: instance payloads
// are rendered by export.JSONValue (which the fixed number normalization
// of export makes RFC 8259-clean) and re-verified with json.Valid before
// the record is written.
package batch

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"flashextract/internal/core"
	"flashextract/internal/docstore"
	"flashextract/internal/engine"
	"flashextract/internal/export"
	"flashextract/internal/faults"
	"flashextract/internal/logx"
	"flashextract/internal/metrics"
	"flashextract/internal/prefilter"
	"flashextract/internal/provenance"
	"flashextract/internal/reqid"
	"flashextract/internal/sheetlang"
	"flashextract/internal/textlang"
	"flashextract/internal/trace"
	"flashextract/internal/weblang"
)

// Source is one input document of a batch: a name for the output records
// and a lazy reader, so a large collection is not resident all at once.
type Source struct {
	// Name labels the document in its output record (a file path, URL, …).
	Name string
	// Open returns the document's raw content.
	Open func() ([]byte, error)
}

// FileSource is a Source reading a file from disk.
func FileSource(path string) Source {
	return Source{Name: path, Open: func() ([]byte, error) { return os.ReadFile(path) }}
}

// FileSources resolves paths and glob patterns into file sources, sorted
// and de-duplicated; a pattern matching nothing is kept, so its Open
// reports the error as a record instead of the document vanishing. The
// CLIs and the server's scan_batch globs all expand through it.
func FileSources(patterns []string) ([]Source, error) {
	seen := map[string]bool{}
	var paths []string
	for _, g := range patterns {
		matches, err := filepath.Glob(g)
		if err != nil {
			return nil, fmt.Errorf("batch: bad pattern %q: %w", g, err)
		}
		if matches == nil {
			matches = []string{g}
		}
		for _, m := range matches {
			if !seen[m] {
				seen[m] = true
				paths = append(paths, m)
			}
		}
	}
	sort.Strings(paths)
	sources := make([]Source, len(paths))
	for i, p := range paths {
		sources[i] = FileSource(p)
	}
	return sources, nil
}

// StringSource is a Source over in-memory content.
func StringSource(name, data string) Source {
	return Source{Name: name, Open: func() ([]byte, error) { return []byte(data), nil }}
}

// ProgramSource supplies an already compiled program in place of
// deserializing Options.Program. Run asks once per run and hands the
// program to every worker: no method writes a SchemaProgram, and a run's
// state lives in each document's evaluation cache, highlighting and core
// state. The long-lived server's program registry implements it, so a
// program is compiled once per catalog entry rather than once per request.
type ProgramSource interface {
	Program() *engine.SchemaProgram
}

// Options configures a batch run: it is the one place for the run-path
// switches. The trace ring's bound belongs to the Monitor, which outlives
// runs (Monitor.TraceRing).
type Options struct {
	// Program is the serialized schema extraction program artifact
	// (the output of SaveProgram / engine.SaveSchemaProgram). Ignored when
	// Programs is set.
	Program []byte
	// Programs, when non-nil, supplies the workers' compiled program
	// instead of Program — the learn-once/serve-many seam of the persistent
	// server.
	Programs ProgramSource
	// DocType is the document type the program was learned on: "text",
	// "web", or "sheet".
	DocType string
	// Workers bounds the worker pool; 0 or negative means GOMAXPROCS.
	Workers int
	// DocTimeout bounds each document's run (0 = none). The deadline is
	// enforced cooperatively by engine.RunContext via a core.Budget.
	DocTimeout time.Duration
	// Ordered emits records in input order instead of completion order,
	// making the output byte stream deterministic for any worker count.
	Ordered bool
	// Metrics receives batch_docs_processed / batch_errors counters and
	// the batch_doc_run_seconds latency histogram; nil means none.
	Metrics metrics.Sink
	// Monitor, when non-nil, receives live worker-pool and per-document
	// state and retains recent document span trees — the backing store of
	// the admin server's /healthz and /trace/last endpoints.
	Monitor *Monitor
	// Trace turns on per-document span trees: each document is run under
	// its own tracer with a "doc:<name>" root span, and the finished tree
	// is pushed into Monitor's ring (bounded by Monitor.TraceRing). Requires
	// Monitor (otherwise the trees would have no reader and the option is
	// ignored).
	Trace bool
	// Chaos arms deterministic fault injection for the run (nil = off).
	// The injector is also installed in the per-document context, so
	// engine-level sites (faults.SiteBudget) see it too.
	Chaos *faults.Injector
	// SelfCheck verifies the well-formedness invariants of every extracted
	// instance (engine.CheckInstance) before its record is emitted as ok;
	// a violation becomes a structured "invariant" error record.
	SelfCheck bool
	// Prefilter enables the static admission test: the program is analyzed
	// once for a conservative condition every matching document must meet,
	// and documents failing it short-circuit to the (precomputed) zero-match
	// record without parsing or building an evaluation cache. Sound by
	// construction — the output stream is byte-identical with or without it.
	Prefilter bool
	// Dedup enables the content-addressed store: documents with identical
	// raw bytes are extracted once per run and the result replayed for the
	// duplicates (outcomes that are a pure function of content only).
	Dedup bool
	// Resume is the path of a digest→outcome manifest (NDJSON). When set,
	// outcomes recorded by an earlier run are replayed instead of
	// re-extracted, and this run's deterministic outcomes are appended —
	// making interrupted batches resumable. Resume assumes the same program
	// and options as the run that wrote the manifest.
	Resume string
	// ShardIndex/ShardCount select the 1-based hash-range shard of the
	// corpus this run owns (k of n); documents outside it produce no
	// record, so n shards' outputs union to the unsharded run. 0/0 (the
	// zero values) disable sharding.
	ShardIndex int
	ShardCount int
	// ProvenanceOut, when non-nil, turns on the provenance sidecar: every
	// fully-executed document runs with execution capture, and one
	// flashextract-explain/v1 frame per emitted record is written here —
	// an NDJSON stream aligned line-for-line with the main output. Records
	// whose document did not re-execute the program (error paths,
	// prefilter/dedup/resume shortcuts) get a frame with the "unavailable"
	// reason set. The main NDJSON stream is unaffected: capture only
	// observes operator outputs, so output is byte-identical with or
	// without a sidecar (see the provenance differential tests).
	ProvenanceOut io.Writer
}

// The failure kinds of a Record, so downstream consumers can distinguish
// failure modes structurally instead of parsing error strings.
const (
	// KindRead: the source could not be opened/read (after retries).
	KindRead = "read"
	// KindParse: the document's bytes did not parse as its type.
	KindParse = "parse"
	// KindCancelled: the run's context was cancelled before or during the
	// document.
	KindCancelled = "cancelled"
	// KindBudget: the per-document deadline or budget was exhausted.
	KindBudget = "budget"
	// KindRun: the extraction program itself failed on the document.
	KindRun = "run"
	// KindRender: the extracted instance did not render to valid JSON.
	KindRender = "render"
	// KindInvariant: the instance failed the post-Fill self-check.
	KindInvariant = "invariant"
	// KindPanic: a panic escaped the document's processing and was
	// recovered at the isolation boundary.
	KindPanic = "panic"
)

// Record is one NDJSON output line: the result of running the program on
// one input document, or the structured error that isolated its failure.
type Record struct {
	// Doc is the source's name.
	Doc string `json:"doc"`
	// Index is the source's position in the input, so completion-order
	// output can be re-ordered downstream.
	Index int `json:"index"`
	// OK distinguishes results from error records.
	OK bool `json:"ok"`
	// Kind classifies the failure (one of the Kind* constants; error
	// records only).
	Kind string `json:"kind,omitempty"`
	// Data is the extracted instance as a compact JSON value (results only).
	Data json.RawMessage `json:"data,omitempty"`
	// Error describes the per-document failure (error records only).
	Error string `json:"error,omitempty"`

	// retries is the number of extra read attempts this document consumed
	// (not part of the NDJSON record).
	retries int
	// shortcut tags a record produced without running the program (not
	// part of the NDJSON record).
	shortcut shortcut
	// prov is the record's marshaled flashextract-explain/v1 frame, set on
	// the full execution path when Options.ProvenanceOut is set. Unexported,
	// so it never perturbs the main NDJSON line.
	prov json.RawMessage
}

// shortcut names the run-path layer that stood in for running the program
// on a document ("" for a full run); it is also the document span's
// "shortcut" attribute. A shard drop is never written: it flows through
// the ordered-emission plumbing only to keep the pending map gap-free.
type shortcut string

const (
	shardDrop     shortcut = "shard_drop"
	prefilterSkip shortcut = "prefilter"
	dedupReplay   shortcut = "dedup"
	resumeReplay  shortcut = "resume"
)

// Summary aggregates one batch run.
type Summary struct {
	// Docs is the number of records emitted (results and errors).
	Docs int
	// Errors is the number of error records among them.
	Errors int
	// Skipped is the number of input documents never started because the
	// context was cancelled.
	Skipped int
	// Cancelled reports whether the run was cut short by its context.
	Cancelled bool
	// Retries is the number of retried document-read attempts across the
	// run (attempts beyond each document's first).
	Retries int
	// PrefilterSkipped is the number of documents rejected by the static
	// admission test, whose zero-match records were emitted without
	// parsing or running the program.
	PrefilterSkipped int
	// DedupHits is the number of documents replayed from an identical blob
	// extracted earlier in this run.
	DedupHits int
	// ResumeHits is the number of documents replayed from the resume
	// manifest of an earlier run.
	ResumeHits int
	// ShardDropped is the number of documents outside this run's
	// hash-range shard (no record emitted).
	ShardDropped int
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
}

// add counts one collected record into the summary and the metrics sink —
// the only place a record is counted. It reports whether the record is
// written: a shard drop counts but produces no line.
func (s *Summary) add(rec Record, sink metrics.Sink) bool {
	count := func(field *int, name string, n int) {
		*field += n
		sink.Count(name, int64(n))
	}
	if rec.retries > 0 {
		count(&s.Retries, metrics.BatchRetries, rec.retries)
	}
	switch rec.shortcut {
	case shardDrop:
		count(&s.ShardDropped, metrics.BatchShardDropped, 1)
		return false
	case prefilterSkip:
		count(&s.PrefilterSkipped, metrics.BatchPrefilterSkipped, 1)
	case dedupReplay:
		count(&s.DedupHits, metrics.BatchDedupHits, 1)
	case resumeReplay:
		count(&s.ResumeHits, metrics.BatchResumeHits, 1)
	}
	count(&s.Docs, metrics.BatchDocs, 1)
	if !rec.OK {
		count(&s.Errors, metrics.BatchErrors, 1)
	}
	return true
}

// job pairs a source with its input position.
type job struct {
	index int
	src   Source
}

// Run executes the batch: it validates the options, spins up the worker
// pool, and streams one record per dispatched document to out. Run returns
// only after every goroutine it started has exited; a cancelled context
// drains in-flight documents rather than abandoning them. The returned
// error reports option/program problems or a failed write to out —
// per-document failures are error records in the stream, not errors here.
func Run(ctx context.Context, opts Options, sources []Source, out io.Writer) (Summary, error) {
	start := time.Now()
	lang, err := LanguageFor(opts.DocType)
	if err != nil {
		return Summary{}, err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, max(len(sources), 1))
	// One program per run, deserialized or supplied before dispatch and
	// shared by every worker, so a corrupt program fails the run once, up
	// front.
	var prog *engine.SchemaProgram
	if opts.Programs != nil {
		prog = opts.Programs.Program()
	} else if prog, err = engine.LoadSchemaProgram(opts.Program, lang); err != nil {
		return Summary{}, err
	}
	env := &runEnv{shard: docstore.Shard{K: opts.ShardIndex, N: opts.ShardCount}}
	if err := env.shard.Validate(); err != nil {
		return Summary{}, err
	}
	if opts.Prefilter {
		f, err := prefilter.FromSchemaProgram(prog, opts.DocType)
		if err != nil {
			return Summary{}, err
		}
		// A non-selective filter admits everything; skip the per-document
		// admission probe entirely rather than paying it for nothing.
		if f.Selective() {
			empty, err := emptyOutcome(prog, opts.DocType, opts.SelfCheck)
			if err != nil {
				return Summary{}, err
			}
			env.filter, env.empty = f, empty
		}
	}
	if opts.Dedup {
		env.store = docstore.NewStore()
	}
	if opts.Resume != "" {
		m, err := docstore.OpenManifest(opts.Resume)
		if err != nil {
			return Summary{}, err
		}
		env.manifest = m
	}
	sink := opts.Metrics
	if sink == nil {
		sink = metrics.Nop
	}
	mon := opts.Monitor
	mon.runStarted(start)
	ctx = faults.Into(ctx, opts.Chaos)
	log := logx.From(ctx)
	log.Info("batch run starting", "docs", len(sources), "workers", workers,
		"doc_type", opts.DocType, "ordered", opts.Ordered, "chaos", opts.Chaos.String())

	// submitted counts documents actually handed to a worker; the jobs
	// channel is unbuffered, so a completed send means a worker holds the
	// job and will produce exactly one record for it. It is read again only
	// after the results channel closes, which happens-after the dispatch
	// goroutine finishes.
	submitted := 0
	jobs := make(chan job)
	results := make(chan Record, workers)
	go func() {
		defer close(jobs)
		for i, src := range sources {
			select {
			case jobs <- job{index: i, src: src}:
				submitted++
				mon.docSubmitted()
			case <-ctx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mon.workerUp()
			defer mon.workerDown()
			for j := range jobs {
				results <- processDoc(ctx, prog, opts, env, j, sink)
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	sum := Summary{}
	var writeErr error
	emit := func(rec Record) {
		if !sum.add(rec, sink) || writeErr != nil {
			return
		}
		writeErr = writeRecord(out, rec)
		// The provenance sidecar is written by the same emit path as the
		// record, so ordered runs order the two streams identically and a
		// frame exists for every emitted line.
		if writeErr == nil && opts.ProvenanceOut != nil {
			writeErr = writeProvenance(opts.ProvenanceOut, rec)
		}
	}
	// In ordered mode, records are held until every lower index has been
	// written. Dispatch is sequential from index 0 and every dispatched
	// document produces exactly one record, so the pending set always
	// drains completely — even when cancellation cuts dispatch short.
	pending := map[int]Record{}
	next := 0
	for rec := range results {
		if !opts.Ordered {
			emit(rec)
			continue
		}
		pending[rec.Index] = rec
		for {
			r, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			emit(r)
		}
	}
	sum.Skipped = len(sources) - sum.Docs - sum.ShardDropped
	sum.Cancelled = ctx.Err() != nil
	sum.Elapsed = time.Since(start)
	// The run is drained: mark it finished *before* the conservation check,
	// so a shared monitor knows this run no longer accounts for in-flight
	// documents. (In a persistent server several runs share one monitor;
	// ConservationError only judges a fully quiescent monitor.)
	mon.runFinished(time.Now())
	// Counter conservation: every dispatched document produced exactly one
	// record or one shard drop, and the monitor agrees (processed ==
	// submitted, nothing left in flight). A violation is a runtime bug, not
	// a document failure, so it fails the run.
	if sum.Docs+sum.ShardDropped != submitted {
		if writeErr == nil {
			writeErr = fmt.Errorf("batch: conservation violated: %d records for %d dispatched documents", sum.Docs+sum.ShardDropped, submitted)
		}
	} else if err := mon.ConservationError(); err != nil && writeErr == nil {
		writeErr = err
	}
	// The resume manifest's durability matters to the next run, so a failed
	// append or close fails this one.
	if env.manifest != nil {
		if cerr := env.manifest.Close(); cerr != nil && writeErr == nil {
			writeErr = cerr
		}
	}
	log.Info("batch run finished", "docs", sum.Docs, "errors", sum.Errors,
		"skipped", sum.Skipped, "cancelled", sum.Cancelled, "retries", sum.Retries,
		"prefilter_skipped", sum.PrefilterSkipped, "dedup_hits", sum.DedupHits,
		"resume_hits", sum.ResumeHits, "shard_dropped", sum.ShardDropped,
		"elapsed", sum.Elapsed)
	return sum, writeErr
}

// runEnv is the per-run machinery of the prefilter and docstore layers,
// shared read-mostly across the worker pool.
type runEnv struct {
	// filter is the static admission test (nil = prefiltering off or the
	// analysis produced a condition that admits everything).
	filter *prefilter.Filter
	// empty is the precomputed outcome of a zero-match document — what the
	// full path provably produces for any document the filter rejects.
	empty *docstore.Outcome
	// store is the in-run content-addressed singleflight index (nil = off).
	store *docstore.Store
	// manifest is the cross-run resume journal (nil = off).
	manifest *docstore.Manifest
	// shard is this run's hash-range partition (zero value = everything).
	shard docstore.Shard
}

// needsDigest reports whether any enabled layer keys off document content.
func (e *runEnv) needsDigest() bool {
	return e.store != nil || e.manifest != nil || e.shard.Enabled()
}

// processDoc runs the program over one document, converting every failure
// mode — unreadable source, unparseable document, budget exhaustion,
// renderer fault, even a panic — into a structured error record. With
// Options.Trace the document runs under its own tracer whose "doc:<name>"
// root span (with the full execution tree beneath it) lands in the
// Monitor's ring — per-document tracers keep concurrent documents' trees
// disjoint without any cross-worker synchronization on the hot path.
func processDoc(ctx context.Context, prog *engine.SchemaProgram, opts Options, env *runEnv, j job, sink metrics.Sink) (rec Record) {
	start := time.Now()
	rec = Record{Doc: j.src.Name, Index: j.index}
	var root *trace.Span
	if parent := trace.FromContext(ctx); parent != nil {
		// A request-scoped span (the serve loop's request root) already owns
		// this context: the document becomes a child of the request tree
		// instead of starting a tracer of its own.
		ctx, root = trace.Start(ctx, "doc:"+j.src.Name)
		root.SetInt("index", int64(j.index))
	} else if opts.Trace && opts.Monitor != nil {
		ctx, root = trace.NewTracer().StartRoot(ctx, "doc:"+j.src.Name)
		root.SetInt("index", int64(j.index))
	}
	if rid := reqid.From(ctx); rid != "" {
		root.SetString("request_id", rid)
	}
	opts.Monitor.docStarted()
	defer func() {
		if r := recover(); r != nil {
			rec.OK = false
			rec.Data = nil
			rec.Kind = KindPanic
			rec.Error = fmt.Sprintf("panic: %v", r)
		}
		// The collector counts the record when it is emitted; here the
		// document only leaves the monitor's in-flight set and, unless the
		// shard dropped it, gives its latency sample.
		if rec.shortcut != "" {
			root.SetString("shortcut", string(rec.shortcut))
		}
		if rec.shortcut == shardDrop {
			root.End()
			opts.Monitor.docFinished(true, root)
			return
		}
		sink.Observe(metrics.BatchDocSeconds, time.Since(start).Seconds())
		root.SetBool("ok", rec.OK)
		if rec.Error != "" {
			root.SetString("error", rec.Error)
		}
		root.End()
		opts.Monitor.docFinished(rec.OK, root)
		lg := logx.From(ctx)
		if rec.OK {
			lg.Debug("document processed", "doc", rec.Doc, "index", rec.Index,
				"elapsed", time.Since(start))
		} else {
			lg.Warn("document failed", "doc", rec.Doc, "index", rec.Index,
				"error", rec.Error, "elapsed", time.Since(start))
		}
	}()
	// A document dispatched just as the run is cancelled still gets its
	// record — but a cheap structured one, without opening the source.
	if ctx.Err() != nil {
		rec.Kind = KindCancelled
		rec.Error = "cancelled before start: " + ctx.Err().Error()
		return rec
	}
	inj := faults.From(ctx)
	// Chaos site: stall this worker before it touches the document — a
	// scheduling perturbation that must not change the output stream.
	if d := inj.Delay(faults.SiteWorkerSlow, j.src.Name); d > 0 {
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
		}
	}
	// Transient read failures — injected (faults.SiteDocRead) or organic
	// I/O timeouts — are retried with bounded, jittered backoff; permanent
	// failures (missing file, permission) surface immediately.
	var data []byte
	tries, err := faults.DefaultRetry.Do(ctx, j.src.Name, retryableRead, func() error {
		if ferr := inj.Fail(faults.SiteDocRead, j.src.Name); ferr != nil {
			return ferr
		}
		var oerr error
		data, oerr = j.src.Open()
		return oerr
	})
	rec.retries = tries - 1
	if err != nil {
		rec.Kind = KindRead
		rec.Error = err.Error()
		return rec
	}
	// Chaos site: corrupt the raw bytes before substrate parsing, turning
	// this document into a structured parse failure. Hashing happens after
	// corruption, so the content address names the bytes that will actually
	// be extracted.
	data = inj.Corrupt(faults.SiteDocParse, j.src.Name, data)
	if env.needsDigest() {
		dg := docstore.Hash(data)
		// Sharding first: a document outside this run's range must produce
		// no record at all — regardless of the prefilter — so the n shards'
		// outputs union exactly to the unsharded run.
		if !env.shard.Owns(dg) {
			rec.shortcut = shardDrop
			return rec
		}
		// Resume: replay the persisted outcome of an earlier run.
		if env.manifest != nil {
			if oc, ok := env.manifest.Lookup(dg); ok {
				rec.shortcut = resumeReplay
				applyOutcome(ctx, inj, j.src.Name, &rec, oc)
				return rec
			}
		}
		if env.store != nil {
			done, leader := env.store.Begin(dg)
			if leader {
				// Publish this document's outcome for in-run duplicates and
				// the resume manifest. Registered after the recover defer, so
				// on a panic it runs first and sees the pre-recover record
				// ({OK:false, Kind:""}), which shareableOutcome maps to nil —
				// panics are never replayed.
				defer func() {
					oc := shareableOutcome(rec)
					env.store.Complete(dg, oc)
					if env.manifest != nil && oc != nil {
						env.manifest.Append(dg, oc)
					}
				}()
			} else {
				select {
				case <-done:
					if oc := env.store.Outcome(dg); oc != nil {
						rec.shortcut = dedupReplay
						applyOutcome(ctx, inj, j.src.Name, &rec, oc)
						return rec
					}
					// The leader's outcome was not replayable (cancelled,
					// budget-tripped, panicked): compute our own below.
				case <-ctx.Done():
					// Don't block a draining run on the leader; fall through —
					// the full path resolves quickly under a cancelled context.
				}
			}
		} else if env.manifest != nil {
			// Resume without dedup: still journal this outcome.
			defer func() {
				if oc := shareableOutcome(rec); oc != nil {
					env.manifest.Append(dg, oc)
				}
			}()
		}
	}
	// Static admission: a document failing the program's conservative
	// prefilter condition provably yields zero matches, so the precomputed
	// zero-match outcome stands in for the whole parse-and-run pipeline.
	// (Admit returns true for documents its substrate scanner rejects, so
	// parse errors always surface through the full path below.)
	if env.filter != nil && !env.filter.Admit(string(data)) {
		rec.shortcut = prefilterSkip
		applyOutcome(ctx, inj, j.src.Name, &rec, env.empty)
		return rec
	}
	doc, err := newDocument(opts.DocType, string(data))
	if err != nil {
		rec.Kind = KindParse
		rec.Error = err.Error()
		return rec
	}
	dctx := ctx
	if opts.DocTimeout > 0 {
		var cancel context.CancelFunc
		dctx, cancel = context.WithTimeout(dctx, opts.DocTimeout)
		defer cancel()
	}
	dctx, bud := core.WithBudget(dctx, core.SynthBudget{})
	// Chaos site: exhaust the run budget before extraction starts.
	if inj.Hit(faults.SiteBudget, "run:"+j.src.Name) {
		bud.Trip(core.ReasonInjected)
	}
	var inst *engine.Instance
	var caps map[string]*core.ExecCapture
	if opts.ProvenanceOut != nil {
		inst, _, caps, err = prog.RunCapturedContext(dctx, doc)
	} else {
		inst, _, err = prog.RunContext(dctx, doc)
	}
	if err != nil {
		rec.Kind = classifyRunError(err, bud)
		rec.Error = err.Error()
		return rec
	}
	if opts.SelfCheck {
		if err := engine.CheckInstance(prog.Schema, inst, doc.WholeRegion()); err != nil {
			rec.Kind = KindInvariant
			rec.Error = err.Error()
			return rec
		}
	}
	raw, err := export.JSONValue(inst)
	if err != nil {
		rec.Kind = KindRender
		rec.Error = err.Error()
		return rec
	}
	rec.OK = true
	rec.Data = raw
	if opts.ProvenanceOut != nil {
		frame := provenance.Explain(prog, inst, caps, j.src.Name, j.index)
		frame.RequestID = reqid.From(ctx)
		if fb, err := json.Marshal(frame); err == nil {
			rec.prov = fb
		}
	}
	return rec
}

// writeProvenance writes the record's explain frame to the sidecar stream,
// synthesizing an "unavailable" frame for records whose document did not
// re-execute the program.
func writeProvenance(out io.Writer, rec Record) error {
	line := rec.prov
	if line == nil {
		frame := provenance.Unavailable(rec.Doc, rec.Index, unavailableReason(rec))
		b, err := json.Marshal(frame)
		if err != nil {
			return fmt.Errorf("batch: marshaling explain frame: %w", err)
		}
		line = b
	}
	line = append(line, '\n')
	if _, err := out.Write(line); err != nil {
		return fmt.Errorf("batch: writing provenance: %w", err)
	}
	return nil
}

// unavailableReason classifies why a record carries no captured frame.
func unavailableReason(rec Record) string {
	switch rec.shortcut {
	case prefilterSkip:
		return "prefilter: document provably yields zero matches; program not re-executed"
	case dedupReplay:
		return "dedup: outcome replayed from an identical document"
	case resumeReplay:
		return "resume: outcome replayed from an earlier run's manifest"
	}
	if !rec.OK {
		return "error: " + rec.Kind
	}
	return "not captured"
}

// applyOutcome copies a replayed (or precomputed) outcome into the record,
// first mirroring the chaos and cancellation checkpoints the full path
// would have hit for this document name, so shortcut paths stay
// byte-identical to full runs under fault injection. A parse outcome
// replays as-is: the full path fails at parse before reaching the budget
// site, so it must not be consumed here either.
func applyOutcome(ctx context.Context, inj *faults.Injector, name string, rec *Record, oc *docstore.Outcome) {
	if oc.Kind != KindParse {
		budget := inj.Hit(faults.SiteBudget, "run:"+name)
		if err := ctx.Err(); err != nil {
			rec.Kind = KindCancelled
			rec.Error = err.Error()
			return
		}
		if budget {
			rec.Kind = KindBudget
			rec.Error = fmt.Sprintf("engine: run budget exhausted: %s", core.ReasonInjected)
			return
		}
	}
	rec.OK = oc.OK
	rec.Kind = oc.Kind
	rec.Data = oc.Data
	rec.Error = oc.Error
}

// shareableOutcome extracts the replayable part of a record: exactly the
// outcomes that are a pure function of document content. Per-attempt
// failures — reads, cancellation, budget trips, panics — return nil and are
// recomputed by every holder of the same bytes.
func shareableOutcome(rec Record) *docstore.Outcome {
	if rec.OK && rec.Kind == "" {
		return &docstore.Outcome{OK: true, Data: rec.Data}
	}
	switch rec.Kind {
	case KindParse, KindRun, KindRender, KindInvariant:
		return &docstore.Outcome{Kind: rec.Kind, Error: rec.Error}
	}
	return nil
}

// emptyOutcome precomputes the record a zero-match document produces, by
// replaying SchemaProgram.RunContext's post-extraction pipeline on the
// empty highlighting: consistency check, Fill, the optional instance
// self-check, and JSON rendering. Every step's output is independent of
// the document when the highlighting is empty (Fill and CheckInstance use
// the whole-region only through the regions of the instance, of which
// there are none), so one outcome stands in for every rejected document.
func emptyOutcome(prog *engine.SchemaProgram, docType string, selfCheck bool) (*docstore.Outcome, error) {
	cr := engine.Highlighting{}
	if err := cr.ConsistentWith(prog.Schema); err != nil {
		return &docstore.Outcome{Kind: KindRun,
			Error: fmt.Sprintf("engine: extraction result inconsistent with schema: %s", err)}, nil
	}
	probe, err := newDocument(docType, "")
	if err != nil {
		return nil, err
	}
	inst := engine.Fill(prog.Schema, cr, probe.WholeRegion())
	if selfCheck {
		if err := engine.CheckInstance(prog.Schema, inst, probe.WholeRegion()); err != nil {
			return &docstore.Outcome{Kind: KindInvariant, Error: err.Error()}, nil
		}
	}
	raw, err := export.JSONValue(inst)
	if err != nil {
		return &docstore.Outcome{Kind: KindRender, Error: err.Error()}, nil
	}
	return &docstore.Outcome{OK: true, Data: raw}, nil
}

// retryableRead reports whether a document-read failure is worth retrying:
// injected transient faults and timeout-flavored I/O errors are; permanent
// filesystem conditions (missing file, directory, permission) are not.
func retryableRead(err error) bool {
	if faults.IsTransient(err) {
		return true
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	var timeout interface{ Timeout() bool }
	return errors.As(err, &timeout) && timeout.Timeout()
}

// classifyRunError maps a RunContext failure to a record kind using the
// context sentinels and the budget's trip reason.
func classifyRunError(err error, bud *core.Budget) string {
	switch {
	case errors.Is(err, context.Canceled):
		return KindCancelled
	case errors.Is(err, context.DeadlineExceeded):
		return KindBudget
	}
	switch bud.Reason() {
	case core.ReasonCancelled:
		return KindCancelled
	case core.ReasonDeadline, core.ReasonCandidates, core.ReasonInjected:
		return KindBudget
	}
	return KindRun
}

// writeRecord marshals one record and writes it as an NDJSON line,
// re-checking json.Valid so the valid-output guarantee holds even if a
// payload slipped past the renderer.
func writeRecord(out io.Writer, rec Record) error {
	line, err := json.Marshal(rec)
	if err != nil || !json.Valid(line) {
		rec.OK = false
		rec.Data = nil
		rec.Kind = KindRender
		rec.Error = fmt.Sprintf("batch: record for %s did not marshal to valid JSON", rec.Doc)
		if line, err = json.Marshal(rec); err != nil {
			return fmt.Errorf("batch: marshaling error record: %w", err)
		}
	}
	line = append(line, '\n')
	if _, err := out.Write(line); err != nil {
		return fmt.Errorf("batch: writing output: %w", err)
	}
	return nil
}

// LanguageFor returns the DSL of a document type ("text", "web", or
// "sheet"), for deserializing program artifacts — a run's own, and the
// catalog entries the server's program registry compiles.
func LanguageFor(docType string) (engine.Language, error) {
	switch docType {
	case "text":
		return textlang.Language(), nil
	case "web":
		return weblang.Language(), nil
	case "sheet":
		return sheetlang.Language(), nil
	default:
		return nil, fmt.Errorf("batch: unknown document type %q (want text, web, or sheet)", docType)
	}
}

// newDocument opens one input document of the batch's type.
func newDocument(docType, src string) (engine.Document, error) {
	switch docType {
	case "text":
		return textlang.NewDocument(src), nil
	case "web":
		return weblang.NewDocument(src)
	case "sheet":
		return sheetlang.FromCSV(src)
	default:
		return nil, fmt.Errorf("batch: unknown document type %q", docType)
	}
}

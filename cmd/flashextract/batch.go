package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"time"

	"flashextract"
	"flashextract/internal/admin"
	"flashextract/internal/batch"
	"flashextract/internal/docstore"
	"flashextract/internal/faults"
	"flashextract/internal/logx"
	"flashextract/internal/metrics"
)

// batchUsage documents the batch subcommand.
const batchUsage = `usage: flashextract batch -load prog.json -type text [flags] glob...

Runs a saved extraction program (flashextract ... -save prog.json) over a
collection of documents with a bounded worker pool, streaming one NDJSON
record per input document. Per-document failures become structured error
records; interrupting with Ctrl-C drains in-flight documents and exits
cleanly.

With -admin ADDR an introspection HTTP server runs alongside the batch,
serving /metrics (Prometheus), /healthz (worker-pool liveness JSON),
/trace/last (recent document span trees), and /debug/pprof/. The process
then keeps serving after the batch finishes until interrupted, so the
run's final state stays inspectable.

With -provenance PATH the run also writes a provenance sidecar: one
flashextract-explain/v1 frame per record, in the same order as the record
stream, mapping every extracted leaf to its source byte range and the
combinator path that produced it. The record stream itself is
byte-identical to a run without -provenance.

With -chaos "seed=N[,rate=F][,failures=K][,delay=D][,sites=a;b;c]" the run
injects deterministic, seed-reproducible faults at named sites in the
serving stack, enables the per-document invariant self-checks, and appends
a one-line flashextract-chaos/v1 JSON report to stderr. A bare seed arms only
transient/output-neutral sites, so the NDJSON output must be byte-identical
to a fault-free run. Flags:
`

// batchConfig holds the batch subcommand's flags.
type batchConfig struct {
	docType    string
	loadProg   string
	out        string
	workers    int
	timeout    time.Duration
	ordered    bool
	admin      string
	traceRing  int
	logLevel   string
	logJSON    bool
	chaos      string
	selfCheck  bool
	prefilter  bool
	dedup      bool
	resume     string
	shard      string
	provenance string
	globs      []string
}

func parseBatchFlags(args []string) (batchConfig, error) {
	var cfg batchConfig
	fs := flag.NewFlagSet("batch", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprint(fs.Output(), batchUsage)
		fs.PrintDefaults()
	}
	fs.StringVar(&cfg.docType, "type", "text", "document type: text, web, or sheet")
	fs.StringVar(&cfg.loadProg, "load", "", "saved extraction program to run (required)")
	fs.StringVar(&cfg.out, "out", "-", "NDJSON output path (- for stdout)")
	fs.IntVar(&cfg.workers, "workers", 0, "worker pool size (0 = GOMAXPROCS)")
	fs.DurationVar(&cfg.timeout, "timeout", 0, "per-document deadline (0 = none)")
	fs.BoolVar(&cfg.ordered, "ordered", false, "emit records in input order instead of completion order")
	fs.StringVar(&cfg.admin, "admin", "", "serve the admin endpoint on this address (e.g. :8080); empty = off")
	fs.IntVar(&cfg.traceRing, "trace-ring", 0, "document traces retained for /trace/last (0 = default)")
	fs.StringVar(&cfg.logLevel, "log-level", "info", "structured log level: debug, info, warn, or error")
	fs.BoolVar(&cfg.logJSON, "log-json", false, "emit structured logs as JSON instead of text")
	fs.StringVar(&cfg.chaos, "chaos", "", "arm deterministic fault injection: seed=N[,rate=F][,failures=K][,delay=D][,sites=a;b;c]")
	fs.BoolVar(&cfg.selfCheck, "selfcheck", false, "verify instance well-formedness invariants per document (implied by -chaos)")
	fs.BoolVar(&cfg.prefilter, "prefilter", false, "statically analyze the program and skip documents that provably yield zero matches")
	fs.BoolVar(&cfg.dedup, "dedup", false, "extract documents with identical content once and replay the result for duplicates")
	fs.StringVar(&cfg.resume, "resume", "", "digest→outcome manifest path: replay outcomes from an earlier run and journal this one's (resumable batches)")
	fs.StringVar(&cfg.shard, "shard", "", "own only the k-th of n hash-range shards of the corpus, as \"k/n\" (shards' outputs union to the full run)")
	fs.StringVar(&cfg.provenance, "provenance", "", "write a provenance sidecar — one flashextract-explain/v1 frame per record, same order as the record stream — to this NDJSON path (- for stderr); empty = off")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	cfg.globs = fs.Args()
	return cfg, nil
}

// runBatch executes the batch subcommand: it expands the input globs,
// wires SIGINT to graceful cancellation, streams the batch, and prints a
// summary line to stderr. With -admin it also stands up the introspection
// server for the lifetime of the process and self-checks for goroutine
// leaks on the way out.
func runBatch(args []string, stdout io.Writer) error {
	cfg, err := parseBatchFlags(args)
	if err != nil {
		return err
	}
	if cfg.loadProg == "" {
		return fmt.Errorf("batch: -load is required")
	}
	if len(cfg.globs) == 0 {
		return fmt.Errorf("batch: no input documents (pass paths or globs)")
	}
	logger, err := logx.New(os.Stderr, cfg.logLevel, cfg.logJSON)
	if err != nil {
		return err
	}
	artifact, err := os.ReadFile(cfg.loadProg)
	if err != nil {
		return err
	}
	sources, err := batch.FileSources(cfg.globs)
	if err != nil {
		return err
	}

	out := stdout
	if cfg.out != "" && cfg.out != "-" {
		f, err := os.Create(cfg.out)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}

	// Ctrl-C cancels the context: the pool stops dispatching, finishes
	// in-flight documents, and the summary reports the rest as skipped.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	ctx = logx.Into(ctx, logger)

	shard, err := docstore.ParseShard(cfg.shard)
	if err != nil {
		return err
	}
	// The provenance sidecar: capture is on only when a destination is
	// given, so plain runs keep the zero-overhead execution path.
	var provOut io.Writer
	if cfg.provenance == "-" {
		provOut = os.Stderr
	} else if cfg.provenance != "" {
		f, err := os.Create(cfg.provenance)
		if err != nil {
			return fmt.Errorf("batch: creating provenance sidecar: %w", err)
		}
		defer f.Close()
		provOut = f
	}
	opts := flashextract.BatchOptions{
		Program:       artifact,
		DocType:       cfg.docType,
		Workers:       cfg.workers,
		DocTimeout:    cfg.timeout,
		Ordered:       cfg.ordered,
		SelfCheck:     cfg.selfCheck,
		Prefilter:     cfg.prefilter,
		Dedup:         cfg.dedup,
		Resume:        cfg.resume,
		ShardIndex:    shard.K,
		ShardCount:    shard.N,
		ProvenanceOut: provOut,
	}

	// Chaos mode: the -chaos spec arms deterministic fault injection, and
	// self-checks come on with it — the point of injecting faults is to
	// catch the invariant they break.
	var inj *faults.Injector
	if cfg.chaos != "" {
		if inj, err = faults.ParseSpec(cfg.chaos); err != nil {
			return err
		}
		opts.Chaos = inj
		opts.SelfCheck = true
		logger.Info("chaos armed", "spec", inj.String())
	}

	// The admin plane: a metrics registry + monitor feeding the HTTP
	// server. The goroutine baseline is captured before anything starts so
	// the post-shutdown leak check sees only what this run created.
	var srv *admin.Server
	baseline := runtime.NumGoroutine()
	if cfg.admin != "" {
		reg := metrics.NewRegistry()
		mon := &batch.Monitor{TraceRing: cfg.traceRing}
		opts.Metrics = reg
		opts.Monitor = mon
		opts.Trace = true
		srv = admin.New(reg, mon)
		srv.SetInjector(inj)
		if err := srv.Start(cfg.admin); err != nil {
			return err
		}
		logger.Info("admin endpoint serving", "addr", srv.Addr())
	}

	sum, err := flashextract.RunBatch(ctx, opts, sources, out)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "flashextract batch: %d docs, %d errors, %d skipped, %d retries in %s\n",
		sum.Docs, sum.Errors, sum.Skipped, sum.Retries, sum.Elapsed.Round(time.Millisecond))
	if sum.PrefilterSkipped > 0 || sum.DedupHits > 0 || sum.ResumeHits > 0 || sum.ShardDropped > 0 {
		fmt.Fprintf(os.Stderr, "flashextract batch: %d prefilter-skipped, %d dedup hits, %d resume hits, %d shard-dropped\n",
			sum.PrefilterSkipped, sum.DedupHits, sum.ResumeHits, sum.ShardDropped)
	}
	if inj != nil {
		if err := writeChaosReport(os.Stderr, inj, sum); err != nil {
			return err
		}
	}
	if srv != nil && ctx.Err() == nil {
		// Linger: keep the run's final metrics, health, and traces
		// inspectable until the operator interrupts.
		logger.Info("batch finished; admin endpoint lingering until interrupt",
			"addr", srv.Addr())
		<-ctx.Done()
	}
	if srv != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			return fmt.Errorf("batch: admin shutdown: %w", err)
		}
		if err := checkGoroutineLeak(baseline); err != nil {
			return err
		}
	}
	if sum.Cancelled {
		return fmt.Errorf("batch: interrupted after %d of %d documents", sum.Docs, len(sources))
	}
	return nil
}

// chaosReport is the flashextract-chaos/v1 record a chaos run appends to
// stderr: everything needed to reproduce the run (the full spec round-trips
// through -chaos) plus the outcome counters the differential checks.
type chaosReport struct {
	Schema    string   `json:"schema"`
	Spec      string   `json:"spec"`
	Seed      int64    `json:"seed"`
	Sites     []string `json:"sites"`
	Docs      int      `json:"docs"`
	Errors    int      `json:"errors"`
	Skipped   int      `json:"skipped"`
	Retries   int      `json:"retries"`
	Cancelled bool     `json:"cancelled"`
	ElapsedMS int64    `json:"elapsed_ms"`
}

// writeChaosReport emits the one-line chaos report JSON.
func writeChaosReport(w io.Writer, inj *faults.Injector, sum flashextract.BatchSummary) error {
	rep := chaosReport{
		Schema:    "flashextract-chaos/v1",
		Spec:      inj.String(),
		Seed:      inj.Seed(),
		Sites:     inj.Sites(),
		Docs:      sum.Docs,
		Errors:    sum.Errors,
		Skipped:   sum.Skipped,
		Retries:   sum.Retries,
		Cancelled: sum.Cancelled,
		ElapsedMS: sum.Elapsed.Milliseconds(),
	}
	enc := json.NewEncoder(w)
	return enc.Encode(rep)
}

// checkGoroutineLeak verifies the process drained back to (about) its
// pre-run goroutine count after the pool and admin server shut down. The
// slack covers runtime-internal goroutines (e.g. the signal watcher) that
// legitimately outlive the run; everything else — stuck workers, an
// unshut listener — fails the process, which is exactly what the CI smoke
// test asserts.
func checkGoroutineLeak(baseline int) error {
	const slack = 3
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline+slack {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("goroutine leak: %d alive after shutdown (baseline %d)", n, baseline)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

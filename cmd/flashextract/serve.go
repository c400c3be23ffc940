package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"flashextract/internal/admin"
	"flashextract/internal/batch"
	"flashextract/internal/faults"
	"flashextract/internal/logx"
	"flashextract/internal/metrics"
	"flashextract/internal/serve"
)

// serveUsage documents the serve subcommand.
const serveUsage = `usage: flashextract serve -programs DIR [flags]

Runs the long-lived extraction service: saved programs named
<name>@<version>.<doctype>.json are loaded from DIR into a hot-reloadable
registry, and the process speaks the flashextract-serve/v1 NDJSON protocol
over stdin/stdout — a ready frame on startup, then one response frame per
request line (scan, scan_batch, list_programs, reload, close). Failures
are structured error frames, never a process exit. SIGHUP reloads the
program directory; SIGINT drains in-flight requests and exits cleanly.

With -admin ADDR the introspection HTTP server runs alongside the stream,
adding /programs (per-program serving counters), /rpc (the protocol over
HTTP POST), and /requests (the slowest requests' traces, as
flashextract-requests/v1) to the usual /metrics, /healthz, /trace/last,
and /debug/pprof/ endpoints.

With -access-log PATH every handled frame appends one
flashextract-access-log/v1 NDJSON line — request id, op, program, doc
count, status, latency, response bytes — to PATH (- for stderr).

With -chaos the same deterministic fault sites as the batch subcommand are
armed inside the server, and the per-document self-checks come on. Flags:
`

// serveConfig holds the serve subcommand's flags.
type serveConfig struct {
	programs     string
	admin        string
	maxInflight  int
	workers      int
	timeout      time.Duration
	traceRing    int
	accessLog    string
	slowRequests int
	logLevel     string
	logJSON      bool
	chaos        string
	selfCheck    bool
	prefilter    bool
}

func parseServeFlags(args []string) (serveConfig, error) {
	var cfg serveConfig
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprint(fs.Output(), serveUsage)
		fs.PrintDefaults()
	}
	fs.StringVar(&cfg.programs, "programs", "", "program directory: <name>@<version>.<doctype>.json artifacts (required)")
	fs.StringVar(&cfg.admin, "admin", "", "serve the admin endpoint on this address (e.g. :8080); empty = off")
	fs.IntVar(&cfg.maxInflight, "max-inflight", serve.DefaultMaxInflight, "documents admitted across all in-flight requests before overloaded frames")
	fs.IntVar(&cfg.workers, "workers", 0, "per-scan_batch worker pool size (0 = GOMAXPROCS)")
	fs.DurationVar(&cfg.timeout, "timeout", 0, "default per-document deadline when a request has no timeout_ms (0 = none)")
	fs.IntVar(&cfg.traceRing, "trace-ring", 0, "document traces retained for /trace/last (0 = default)")
	fs.StringVar(&cfg.accessLog, "access-log", "", "append one flashextract-access-log/v1 NDJSON line per handled frame to this path (- for stderr); empty = off")
	fs.IntVar(&cfg.slowRequests, "slow-requests", 0, "slowest requests retained for /requests (0 = default)")
	fs.StringVar(&cfg.logLevel, "log-level", "info", "structured log level: debug, info, warn, or error")
	fs.BoolVar(&cfg.logJSON, "log-json", false, "emit structured logs as JSON instead of text")
	fs.StringVar(&cfg.chaos, "chaos", "", "arm deterministic fault injection: seed=N[,rate=F][,failures=K][,delay=D][,sites=a;b;c]")
	fs.BoolVar(&cfg.selfCheck, "selfcheck", false, "verify instance well-formedness invariants per document (implied by -chaos)")
	fs.BoolVar(&cfg.prefilter, "prefilter", false, "statically analyze programs and skip documents that provably yield zero matches")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("serve: unexpected arguments %q (documents arrive as protocol frames)", fs.Args())
	}
	return cfg, nil
}

// runServe executes the serve subcommand: it loads the program registry,
// stands up the (optional) admin endpoint with the serve-specific routes,
// wires SIGINT to graceful drain and SIGHUP to hot reload, and speaks the
// protocol over stdin/stdout until EOF, a close frame, or an interrupt.
// On the way out it self-checks for goroutine leaks.
func runServe(args []string, stdout io.Writer) error {
	cfg, err := parseServeFlags(args)
	if err != nil {
		return err
	}
	if cfg.programs == "" {
		return fmt.Errorf("serve: -programs is required")
	}
	logger, err := logx.New(os.Stderr, cfg.logLevel, cfg.logJSON)
	if err != nil {
		return err
	}

	var inj *faults.Injector
	if cfg.chaos != "" {
		if inj, err = faults.ParseSpec(cfg.chaos); err != nil {
			return err
		}
		cfg.selfCheck = true
		logger.Info("chaos armed", "spec", inj.String())
	}

	// The goroutine baseline is captured before anything starts, so the
	// post-shutdown leak check sees only what this process created.
	baseline := runtime.NumGoroutine()

	// The access log: one NDJSON line per handled frame, appended so a
	// restarted server extends the same log.
	var accessLog io.Writer
	if cfg.accessLog == "-" {
		accessLog = os.Stderr
	} else if cfg.accessLog != "" {
		f, err := os.OpenFile(cfg.accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("serve: opening access log: %w", err)
		}
		defer f.Close()
		accessLog = f
	}

	registry := serve.NewRegistry(cfg.programs, 0)
	added, _, err := registry.Load()
	if err != nil {
		return err
	}
	reg := metrics.NewRegistry()
	mon := &batch.Monitor{TraceRing: cfg.traceRing}
	server, err := serve.New(serve.Options{
		Registry:       registry,
		MaxInflight:    cfg.maxInflight,
		Workers:        cfg.workers,
		DefaultTimeout: cfg.timeout,
		Metrics:        reg,
		Monitor:        mon,
		Trace:          true,
		Chaos:          inj,
		SelfCheck:      cfg.selfCheck,
		Prefilter:      cfg.prefilter,
		AccessLog:      accessLog,
		SlowRequests:   cfg.slowRequests,
	})
	if err != nil {
		return err
	}
	logger.Info("program registry loaded", "dir", cfg.programs, "programs", added)

	var adm *admin.Server
	if cfg.admin != "" {
		adm = admin.New(reg, mon)
		adm.SetInjector(inj)
		adm.Handle("/programs", server.ProgramsHandler())
		adm.Handle("/rpc", server.RPCHandler())
		adm.Handle("/requests", server.RequestsHandler())
		if err := adm.Start(cfg.admin); err != nil {
			return err
		}
		logger.Info("admin endpoint serving", "addr", adm.Addr())
	}

	// SIGINT drains: the context cancels, in-flight requests finish with
	// cancelled records, and stdin is closed to unblock the stream reader.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	ctx = logx.Into(ctx, logger)

	// SIGHUP hot-reloads the program directory without dropping the stream;
	// a failed rescan keeps the previous catalog live.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	hupDone := make(chan struct{})
	go func() {
		defer close(hupDone)
		for {
			select {
			case <-hup:
				added, removed, err := server.Reload()
				if err != nil {
					logger.Warn("SIGHUP reload failed; catalog unchanged", "error", err)
					continue
				}
				logger.Info("SIGHUP reload", "programs", registry.Len(),
					"added", added, "removed", removed)
			case <-ctx.Done():
				return
			}
		}
	}()

	serveErr := server.Serve(ctx, os.Stdin, stdout)
	interrupted := errors.Is(serveErr, context.Canceled)
	if interrupted {
		// The drain already happened inside Serve; the interrupt is a clean
		// exit, not an error.
		serveErr = nil
	}
	// Unblock the stream reader goroutine (stdin has no cancellable read)
	// so the leak check below sees a fully drained process.
	os.Stdin.Close()
	stop()
	<-hupDone

	snap := reg.Snapshot()
	fmt.Fprintf(os.Stderr, "flashextract serve: %d frames, %d errors, %d overloaded, %d reloads, %d docs\n",
		snap.Counters[metrics.ServeRequests], snap.Counters[metrics.ServeErrors],
		snap.Counters[metrics.ServeOverloaded], snap.Counters[metrics.ServeReloads],
		snap.Counters[metrics.BatchDocs])

	if adm != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := adm.Shutdown(sctx); err != nil {
			return fmt.Errorf("serve: admin shutdown: %w", err)
		}
	}
	if err := checkGoroutineLeak(baseline); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if interrupted {
		logger.Info("interrupted; drained cleanly")
	}
	return serveErr
}

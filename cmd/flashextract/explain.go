package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"flashextract"
	"flashextract/internal/batch"
	"flashextract/internal/logx"
)

// explainUsage documents the explain subcommand.
const explainUsage = `usage: flashextract explain -load prog.json -type text [flags] glob...

Runs a saved extraction program over documents with execution capture on
and streams one flashextract-explain/v1 frame per document to stdout:
every extracted leaf mapped to its source byte range and the combinator
path (Map, Filter, Merge, Pair) that produced it. The NDJSON record
stream a plain batch run would emit goes to -records (discarded by
default) and is byte-identical to an uncaptured run. Flags:
`

// explainConfig holds the explain subcommand's flags.
type explainConfig struct {
	docType  string
	loadProg string
	records  string
	timeout  time.Duration
	logLevel string
	logJSON  bool
	globs    []string
}

func parseExplainFlags(args []string) (explainConfig, error) {
	var cfg explainConfig
	fs := flag.NewFlagSet("explain", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprint(fs.Output(), explainUsage)
		fs.PrintDefaults()
	}
	fs.StringVar(&cfg.docType, "type", "text", "document type: text, web, or sheet")
	fs.StringVar(&cfg.loadProg, "load", "", "saved extraction program to run (required)")
	fs.StringVar(&cfg.records, "records", "", "also write the NDJSON record stream to this path (- for stderr); empty = discard")
	fs.DurationVar(&cfg.timeout, "timeout", 0, "per-document deadline (0 = none)")
	fs.StringVar(&cfg.logLevel, "log-level", "info", "structured log level: debug, info, warn, or error")
	fs.BoolVar(&cfg.logJSON, "log-json", false, "emit structured logs as JSON instead of text")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	cfg.globs = fs.Args()
	return cfg, nil
}

// runExplain executes the explain subcommand: a single-worker, input-order
// batch run with provenance capture on, the explain frames on stdout and
// the record stream diverted.
func runExplain(args []string, stdout io.Writer) error {
	cfg, err := parseExplainFlags(args)
	if err != nil {
		return err
	}
	if cfg.loadProg == "" {
		return fmt.Errorf("explain: -load is required")
	}
	if len(cfg.globs) == 0 {
		return fmt.Errorf("explain: no input documents (pass paths or globs)")
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

	records := io.Discard
	if cfg.records == "-" {
		records = os.Stderr
	} else if cfg.records != "" {
		f, err := os.Create(cfg.records)
		if err != nil {
			return err
		}
		defer f.Close()
		records = f
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	ctx = logx.Into(ctx, logger)

	// Ordered single-worker emission keeps the frame stream in input order,
	// so frame K always explains document K.
	opts := flashextract.BatchOptions{
		Program:       artifact,
		DocType:       cfg.docType,
		Workers:       1,
		DocTimeout:    cfg.timeout,
		Ordered:       true,
		ProvenanceOut: stdout,
	}
	sum, err := flashextract.RunBatch(ctx, opts, sources, records)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "flashextract explain: %d docs, %d errors, %d skipped in %s\n",
		sum.Docs, sum.Errors, sum.Skipped, sum.Elapsed.Round(time.Millisecond))
	if sum.Cancelled {
		return fmt.Errorf("explain: interrupted after %d of %d documents", sum.Docs, len(sources))
	}
	return nil
}

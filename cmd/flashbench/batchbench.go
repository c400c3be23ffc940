package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"flashextract/internal/batch"
	"flashextract/internal/bench"
	"flashextract/internal/engine"
	"flashextract/internal/metrics"
	"flashextract/internal/prefilter"
)

// batchReport is the machine-readable envelope of -batch-json mode; the
// schema (flashextract-batch-metrics/v3) is documented in EXPERIMENTS.md.
// v2 replaced v1 when the run-path prefilter landed: the corpus gained
// synthetic non-matching padding and duplicated blobs, runs carry their
// prefilter/dedup configuration and skip counters, and each domain
// reports the skip rate and the prefilter's throughput gain. v3 replaced
// v2's skip_rate, which divided the prefilter+dedup run's skips by the
// padding count, with padding_skipped, real_skipped and
// padding_skip_rate.
type batchReport struct {
	Schema    string           `json:"schema"`
	GoMaxProc int              `json:"gomaxprocs"`
	Reps      int              `json:"reps"`
	Domains   []batchDomain    `json:"domains"`
	Metrics   metrics.Snapshot `json:"metrics"`
}

// batchCorpus is the composition of one domain's benchmark corpus.
type batchCorpus struct {
	// Real is the number of (amplified) corpus task documents.
	Real int `json:"real"`
	// Padding is the number of synthetic non-matching documents.
	Padding int `json:"padding"`
	// Duplicates is the number of extra copies of one real document.
	Duplicates int `json:"duplicates"`
	// Total is the full corpus size handed to each run.
	Total int `json:"total"`
}

// batchDomain reports one domain's throughput runs: a program learned on
// the trainer task is replayed over the domain's padded corpus under each
// run configuration.
type batchDomain struct {
	Domain  string      `json:"domain"`
	Trainer string      `json:"trainer"`
	Corpus  batchCorpus `json:"corpus"`
	Runs    []batchRun  `json:"runs"`
	// IdenticalOutput reports whether every configuration's ordered output
	// was byte-identical — the determinism and prefilter/dedup soundness
	// guarantee in one bit.
	IdenticalOutput bool `json:"identical_output"`
	// PaddingSkipped and RealSkipped count the documents the admission
	// test rejects among the synthetic padding and among the real
	// documents (duplicates included); their sum is the prefilter-only
	// run's PrefilterSkipped. PaddingSkipRate is PaddingSkipped over the
	// padding count, at most 1.
	PaddingSkipped  int     `json:"padding_skipped"`
	RealSkipped     int     `json:"real_skipped"`
	PaddingSkipRate float64 `json:"padding_skip_rate"`
	// ThroughputGain is best prefiltered throughput over best unfiltered
	// throughput at the same worker count.
	ThroughputGain float64 `json:"throughput_gain"`
}

// batchRun is one configuration (worker count × prefilter × dedup),
// best/mean over reps.
type batchRun struct {
	Workers          int     `json:"workers"`
	Prefilter        bool    `json:"prefilter"`
	Dedup            bool    `json:"dedup"`
	BestNs           int64   `json:"best_ns"`
	MeanNs           int64   `json:"mean_ns"`
	DocsPerSec       float64 `json:"docs_per_sec"`
	Errors           int     `json:"errors"`
	OutputBytes      int     `json:"output_bytes"`
	PrefilterSkipped int     `json:"prefilter_skipped"`
	DedupHits        int     `json:"dedup_hits"`
}

// corpusAmplification repeats each domain's documents so a batch run has
// enough work to measure pool throughput on small corpus files.
const corpusAmplification = 8

// paddingFactor sizes the synthetic non-matching padding relative to the
// real documents: the web-scale regime where most of the corpus is noise
// and admission filtering pays.
const paddingFactor = 8

// runBatchBench measures batch-runtime throughput per domain over a
// padded, duplicated corpus and writes the report as JSON (the data
// behind BENCH_batch.json).
func runBatchBench(tasks []*bench.Task, reps, workers int, path string) {
	if reps < 1 {
		reps = 1
	}
	if workers < 2 {
		workers = 2
	}
	reg := metrics.NewRegistry()
	report := batchReport{
		Schema:    "flashextract-batch-metrics/v3",
		GoMaxProc: runtime.GOMAXPROCS(0),
		Reps:      reps,
	}

	trainers := map[string]*bench.Task{}
	real := map[string][]batch.Source{}
	var order []string
	for _, task := range tasks {
		if task.Source == "" {
			fmt.Fprintf(os.Stderr, "flashbench: task %s has no raw source\n", task.Name)
			os.Exit(1)
		}
		if _, ok := trainers[task.Domain]; !ok {
			trainers[task.Domain] = task
			order = append(order, task.Domain)
		}
		for rep := 0; rep < corpusAmplification; rep++ {
			real[task.Domain] = append(real[task.Domain],
				batch.StringSource(fmt.Sprintf("%s#%d", task.Name, rep), task.Source))
		}
	}

	for _, domain := range order {
		trainer := trainers[domain]
		prog, err := bench.LearnSchemaProgram(trainer, 3)
		if err != nil {
			fmt.Fprintf(os.Stderr, "flashbench: %v\n", err)
			os.Exit(1)
		}
		sources, corpusInfo := padCorpus(domain, trainer, real[domain])
		dom := batchDomain{Domain: domain, Trainer: trainer.Name, Corpus: corpusInfo}
		dom.PaddingSkipped, dom.RealSkipped = countSkips(prog, domain, sources, corpusInfo)
		if corpusInfo.Padding > 0 {
			dom.PaddingSkipRate = float64(dom.PaddingSkipped) / float64(corpusInfo.Padding)
		}

		configs := []runConfig{
			{1, false, false},
			{workers, false, false},
			{workers, true, false},
			{workers, true, true},
		}
		dom.IdenticalOutput = true
		var refOut string
		var offBest, onBest int64
		for i, c := range configs {
			run := batchRun{Workers: c.workers, Prefilter: c.prefilter, Dedup: c.dedup}
			var total int64
			var out string
			for rep := 0; rep < reps; rep++ {
				var sum batch.Summary
				out, sum = timeBatch(prog, domain, c, sources, reg)
				ns := sum.Elapsed.Nanoseconds()
				total += ns
				if run.BestNs == 0 || ns < run.BestNs {
					run.BestNs = ns
				}
				run.Errors = sum.Errors
				run.OutputBytes = len(out)
				run.PrefilterSkipped = sum.PrefilterSkipped
				run.DedupHits = sum.DedupHits
			}
			run.MeanNs = total / int64(reps)
			if run.BestNs > 0 {
				run.DocsPerSec = float64(corpusInfo.Total) / (float64(run.BestNs) / float64(time.Second))
			}
			if i == 0 {
				refOut = out
			} else if out != refOut {
				dom.IdenticalOutput = false
			}
			if c.workers == workers && !c.dedup {
				if c.prefilter {
					onBest = run.BestNs
				} else {
					offBest = run.BestNs
				}
			}
			if c.prefilter && !c.dedup && run.PrefilterSkipped != dom.PaddingSkipped+dom.RealSkipped {
				fmt.Fprintf(os.Stderr, "flashbench: %s: the prefilter run skipped %d documents, but admission over the corpus rejects %d padding + %d real\n",
					domain, run.PrefilterSkipped, dom.PaddingSkipped, dom.RealSkipped)
				os.Exit(1)
			}
			dom.Runs = append(dom.Runs, run)
			fmt.Fprintf(os.Stderr, "%-6s workers=%d prefilter=%-5v dedup=%-5v docs=%d errors=%d skipped=%d dedup_hits=%d  best %12d ns  %8.0f docs/s\n",
				domain, c.workers, c.prefilter, c.dedup, corpusInfo.Total, run.Errors,
				run.PrefilterSkipped, run.DedupHits, run.BestNs, run.DocsPerSec)
		}
		if onBest > 0 {
			dom.ThroughputGain = float64(offBest) / float64(onBest)
		}
		if !dom.IdenticalOutput {
			fmt.Fprintf(os.Stderr, "flashbench: %s: run outputs differ across configurations\n", domain)
			os.Exit(1)
		}
		report.Domains = append(report.Domains, dom)
	}
	report.Metrics = reg.Snapshot()

	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "flashbench: %v\n", err)
		os.Exit(1)
	}
	out = append(out, '\n')
	if path == "-" {
		os.Stdout.Write(out)
		return
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "flashbench: %v\n", err)
		os.Exit(1)
	}
}

// padCorpus builds a domain's benchmark corpus: the amplified real
// documents, paddingFactor times as much synthetic non-matching padding,
// and one real blob duplicated as many times as there are real documents,
// in that order.
func padCorpus(domain string, trainer *bench.Task, real []batch.Source) ([]batch.Source, batchCorpus) {
	info := batchCorpus{Real: len(real)}
	sources := append([]batch.Source{}, real...)
	for _, pad := range bench.PaddingDocs(domain, paddingFactor*len(real), 2026) {
		sources = append(sources, batch.StringSource(pad.Name, pad.Content))
		info.Padding++
	}
	for _, dup := range bench.DuplicateDocs(trainer.Name, trainer.Source, len(real)) {
		sources = append(sources, batch.StringSource(dup.Name, dup.Content))
		info.Duplicates++
	}
	info.Total = len(sources)
	return sources, info
}

// countSkips admits every document of a padCorpus corpus through the
// program's prefilter, as batch.Run with Prefilter does, and counts the
// rejections among the padding and among the real documents and their
// duplicates.
func countSkips(prog []byte, domain string, sources []batch.Source, info batchCorpus) (padding, real int) {
	lang, err := batch.LanguageFor(domain)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flashbench: %v\n", err)
		os.Exit(1)
	}
	p, err := engine.LoadSchemaProgram(prog, lang)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flashbench: %v\n", err)
		os.Exit(1)
	}
	f, err := prefilter.FromSchemaProgram(p, domain)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flashbench: %v\n", err)
		os.Exit(1)
	}
	if !f.Selective() {
		return 0, 0 // batch.Run skips admission for a filter that admits everything
	}
	for i, src := range sources {
		data, err := src.Open()
		if err != nil {
			fmt.Fprintf(os.Stderr, "flashbench: %s: %v\n", src.Name, err)
			os.Exit(1)
		}
		if f.Admit(string(data)) {
			continue
		}
		if i >= info.Real && i < info.Real+info.Padding {
			padding++
		} else {
			real++
		}
	}
	return padding, real
}

// runConfig is one measured batch configuration.
type runConfig struct {
	workers          int
	prefilter, dedup bool
}

// timeBatch runs one ordered batch and returns its output and summary.
func timeBatch(prog []byte, domain string, c runConfig, sources []batch.Source, sink metrics.Sink) (string, batch.Summary) {
	var buf bytes.Buffer
	sum, err := batch.Run(context.Background(), batch.Options{
		Program: prog, DocType: domain, Workers: c.workers, Ordered: true, Metrics: sink,
		Prefilter: c.prefilter, Dedup: c.dedup,
	}, sources, io.Writer(&buf))
	if err != nil {
		fmt.Fprintf(os.Stderr, "flashbench: batch %s workers=%d: %v\n", domain, c.workers, err)
		os.Exit(1)
	}
	return buf.String(), sum
}

package batch_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"flashextract/internal/batch"
	"flashextract/internal/bench"
	"flashextract/internal/bench/corpus"
	"flashextract/internal/faults"
	"flashextract/internal/metrics"
)

// domainPrograms learns one schema program per domain (on the first corpus
// task of the domain, as the other differential tests do) exactly once per
// test binary.
var domainPrograms struct {
	once  sync.Once
	progs map[string][]byte
	srcs  map[string][]batch.Source
	err   error
}

func learnDomain(t *testing.T, domain string) ([]byte, []batch.Source) {
	t.Helper()
	domainPrograms.once.Do(func() {
		domainPrograms.progs = map[string][]byte{}
		domainPrograms.srcs = map[string][]batch.Source{}
		trainers := map[string]*bench.Task{}
		for _, task := range corpus.All() {
			if _, ok := trainers[task.Domain]; !ok {
				trainers[task.Domain] = task
			}
			domainPrograms.srcs[task.Domain] = append(domainPrograms.srcs[task.Domain],
				batch.StringSource(task.Name, task.Source))
		}
		for domain, trainer := range trainers {
			prog, err := bench.LearnSchemaProgram(trainer, 3)
			if err != nil {
				domainPrograms.err = fmt.Errorf("learning %s: %w", trainer.Name, err)
				return
			}
			domainPrograms.progs[domain] = prog
		}
	})
	if domainPrograms.err != nil {
		t.Fatal(domainPrograms.err)
	}
	prog, ok := domainPrograms.progs[domain]
	if !ok {
		t.Fatalf("no corpus tasks for domain %q", domain)
	}
	return prog, domainPrograms.srcs[domain]
}

// paddedSources is the corpus of a domain plus n synthetic non-matching
// documents, interleaved deterministically so padding is not all at the
// tail.
func paddedSources(domain string, real []batch.Source, n int) []batch.Source {
	pads := bench.PaddingDocs(domain, n, 42)
	out := make([]batch.Source, 0, len(real)+len(pads))
	for i := 0; i < len(real) || i < len(pads); i++ {
		if i < len(pads) {
			out = append(out, batch.StringSource(pads[i].Name, pads[i].Content))
		}
		if i < len(real) {
			out = append(out, real[i])
		}
	}
	return out
}

func runBatch(t *testing.T, opts batch.Options, sources []batch.Source) (string, batch.Summary) {
	t.Helper()
	var out bytes.Buffer
	sum, err := batch.Run(context.Background(), opts, sources, &out)
	if err != nil {
		t.Fatal(err)
	}
	return out.String(), sum
}

// TestPrefilterCorpusDifferential is the soundness acceptance check of the
// run-path prefilter: over every corpus document of a domain plus a pile
// of synthetic non-matching padding, the ordered NDJSON output with
// -prefilter must be byte-identical to the full run — at any worker count.
// It also pins the optimization's teeth: at least 80% of the padding must
// be rejected by the static admission test.
func TestPrefilterCorpusDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus differential is not short")
	}
	const padding = 40
	for _, domain := range []string{"text", "web", "sheet"} {
		domain := domain
		t.Run(domain, func(t *testing.T) {
			t.Parallel()
			prog, real := learnDomain(t, domain)
			sources := paddedSources(domain, real, padding)
			base := batch.Options{Program: prog, DocType: domain, Ordered: true}

			var ref string
			for _, workers := range []int{1, 4} {
				opts := base
				opts.Workers = workers
				off, offSum := runBatch(t, opts, sources)
				opts.Prefilter = true
				on, onSum := runBatch(t, opts, sources)
				if off != on {
					t.Fatalf("workers=%d: prefiltered output differs from full run:\n--- off ---\n%s--- on ---\n%s",
						workers, off, on)
				}
				if ref == "" {
					ref = off
				} else if off != ref {
					t.Fatalf("workers=%d output differs from workers=1", workers)
				}
				if offSum.PrefilterSkipped != 0 {
					t.Fatalf("prefilter-off run reported %d skips", offSum.PrefilterSkipped)
				}
				if onSum.Docs != len(sources) {
					t.Fatalf("prefilter-on run emitted %d of %d records", onSum.Docs, len(sources))
				}
				if min := padding * 8 / 10; onSum.PrefilterSkipped < min {
					t.Errorf("workers=%d: prefilter skipped %d docs, want >= %d of %d padding",
						workers, onSum.PrefilterSkipped, min, padding)
				}
			}
		})
	}
}

// TestDedupExactlyOnce: with -dedup, every distinct blob is extracted once
// and every duplicate replays — the hit count is exactly (documents -
// distinct contents) — without changing a byte of output.
func TestDedupExactlyOnce(t *testing.T) {
	prog, real := learnDomain(t, "text")
	sources := append([]batch.Source{}, real...)
	// Duplicate the first corpus document and one padding blob.
	dups := bench.DuplicateDocs("dup-real", sourceContent(t, real[0]), 6)
	pad := bench.PaddingDocs("text", 1, 7)[0]
	dups = append(dups, bench.DuplicateDocs("dup-pad", pad.Content, 4)...)
	for _, d := range dups {
		sources = append(sources, batch.StringSource(d.Name, d.Content))
	}
	unique := map[string]bool{}
	for _, s := range sources {
		unique[sourceContent(t, s)] = true
	}
	base := batch.Options{Program: prog, DocType: "text", Ordered: true, Workers: 4}
	off, _ := runBatch(t, base, sources)
	on := base
	on.Dedup = true
	onOut, onSum := runBatch(t, on, sources)
	if off != onOut {
		t.Fatalf("dedup changed the output:\n--- off ---\n%s--- on ---\n%s", off, onOut)
	}
	if want := len(sources) - len(unique); onSum.DedupHits != want {
		t.Errorf("DedupHits = %d, want %d (%d docs, %d distinct)",
			onSum.DedupHits, want, len(sources), len(unique))
	}
}

func sourceContent(t *testing.T, s batch.Source) string {
	t.Helper()
	data, err := s.Open()
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestResumeReplay: a second run pointed at the first run's manifest
// replays every journaled outcome instead of recomputing it, and its
// output is byte-identical to a cold run over the same corpus.
func TestResumeReplay(t *testing.T) {
	prog, real := learnDomain(t, "text")
	sources := paddedSources("text", real, 6)
	manifest := filepath.Join(t.TempDir(), "manifest.json")
	base := batch.Options{Program: prog, DocType: "text", Ordered: true, Workers: 2}

	first := base
	first.Resume = manifest
	_, firstSum := runBatch(t, first, sources[:len(sources)/2])
	if firstSum.ResumeHits != 0 {
		t.Fatalf("cold run reported %d resume hits", firstSum.ResumeHits)
	}

	cold, _ := runBatch(t, base, sources)
	second := base
	second.Resume = manifest
	warm, warmSum := runBatch(t, second, sources)
	if warm != cold {
		t.Fatalf("resumed output differs from cold run:\n--- cold ---\n%s--- warm ---\n%s", cold, warm)
	}
	if warmSum.ResumeHits != firstSum.Docs {
		t.Errorf("ResumeHits = %d, want %d (docs journaled by the first run)",
			warmSum.ResumeHits, firstSum.Docs)
	}
}

// TestShardUnion: the record multisets of the k/n shards union exactly to
// the unsharded run — no document lost, none duplicated.
func TestShardUnion(t *testing.T) {
	prog, real := learnDomain(t, "text")
	sources := paddedSources("text", real, 6)
	base := batch.Options{Program: prog, DocType: "text", Ordered: true, Workers: 2}
	full, _ := runBatch(t, base, sources)

	const n = 3
	var union []string
	for k := 1; k <= n; k++ {
		opts := base
		opts.ShardIndex, opts.ShardCount = k, n
		out, sum := runBatch(t, opts, sources)
		if sum.Docs+sum.ShardDropped != len(sources) {
			t.Fatalf("shard %d/%d: docs=%d dropped=%d of %d sources",
				k, n, sum.Docs, sum.ShardDropped, len(sources))
		}
		union = append(union, splitLines(out)...)
	}
	want := splitLines(full)
	sort.Strings(union)
	sort.Strings(want)
	if !equalStrings(union, want) {
		t.Fatalf("shard union (%d records) differs from unsharded run (%d records)", len(union), len(want))
	}
}

// TestCountersMatchSummary: the collector counts each record once, into
// the run Summary and the metrics sink alike, so with every shortcut layer
// on — prefilter, dedup, resume and a shard — under chaos with retries,
// every batch_* counter equals its Summary field. A run with resume
// replays an in-run duplicate from the manifest its original was just
// journaled to, so a second run without resume supplies the dedup hits.
func TestCountersMatchSummary(t *testing.T) {
	prog, real := learnDomain(t, "text")
	sources := paddedSources("text", real, 8)
	// Copies of the last documents are duplicates, and a source that cannot
	// be read is an error record.
	for _, src := range sources[len(sources)-6:] {
		sources = append(sources, batch.StringSource("copy-"+src.Name, sourceContent(t, src)))
	}
	sources = append(sources, batch.Source{Name: "unreadable",
		Open: func() ([]byte, error) { return nil, os.ErrNotExist }})
	manifest := filepath.Join(t.TempDir(), "manifest.ndjson")
	base := batch.Options{Program: prog, DocType: "text", Ordered: true, Workers: 3,
		Prefilter: true, Dedup: true, ShardIndex: 1, ShardCount: 2}
	// The first half is journaled, for the resumed run to replay.
	journal := base
	journal.Resume = manifest
	runBatch(t, journal, sources[:len(sources)/2])

	exercised := map[string]bool{}
	for _, resume := range []string{manifest, ""} {
		reg := metrics.NewRegistry()
		opts := base
		opts.Resume, opts.Metrics, opts.Chaos, opts.SelfCheck = resume, reg, faults.New(3), true
		_, sum := runBatch(t, opts, sources)
		want := map[string]int{
			metrics.BatchDocs:             sum.Docs,
			metrics.BatchErrors:           sum.Errors,
			metrics.BatchRetries:          sum.Retries,
			metrics.BatchPrefilterSkipped: sum.PrefilterSkipped,
			metrics.BatchDedupHits:        sum.DedupHits,
			metrics.BatchResumeHits:       sum.ResumeHits,
			metrics.BatchShardDropped:     sum.ShardDropped,
		}
		for name := range reg.Snapshot().Counters {
			if _, ok := want[name]; strings.HasPrefix(name, "batch_") && !ok {
				t.Errorf("counter %s has no Summary field to compare with", name)
			}
		}
		for name, w := range want {
			if got := reg.Counter(name); got != int64(w) {
				t.Errorf("resume %q: %s = %d, Summary says %d", resume, name, got, w)
			}
			exercised[name] = exercised[name] || w > 0
		}
	}
	for name, ok := range exercised {
		if !ok {
			t.Errorf("%s is 0 in every run: the test does not exercise it", name)
		}
	}
}

func splitLines(s string) []string {
	s = strings.TrimSuffix(s, "\n")
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPrefilterChaosDifferential: the shortcut paths mirror the chaos
// checkpoints of the full path, so even with every output-deterministic
// fault site armed (reads, corruption, stalls, budget trips), a
// prefiltered+deduped run is byte-identical to the full one under the same
// seed.
func TestPrefilterChaosDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos differential is not short")
	}
	spec := "seed=7,rate=0.4,sites=" + strings.Join([]string{
		faults.SiteDocRead, faults.SiteDocParse, faults.SiteWorkerSlow,
		faults.SiteBudget,
	}, ";")
	for _, domain := range []string{"text", "sheet"} {
		domain := domain
		t.Run(domain, func(t *testing.T) {
			t.Parallel()
			prog, real := learnDomain(t, domain)
			sources := paddedSources(domain, real, 10)
			run := func(prefilter, dedup bool) string {
				inj, err := faults.ParseSpec(spec)
				if err != nil {
					t.Fatal(err)
				}
				out, _ := runBatch(t, batch.Options{
					Program: prog, DocType: domain, Ordered: true, Workers: 3,
					Chaos: inj, SelfCheck: true, Prefilter: prefilter, Dedup: dedup,
				}, sources)
				return out
			}
			off := run(false, false)
			on := run(true, true)
			if off != on {
				t.Fatalf("chaos output diverged:\n--- off ---\n%s--- on ---\n%s", off, on)
			}
			for i, line := range splitLines(off) {
				if !json.Valid([]byte(line)) {
					t.Errorf("line %d is not valid JSON: %q", i, line)
				}
			}
		})
	}
}

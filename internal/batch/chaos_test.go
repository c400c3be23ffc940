package batch_test

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"flashextract/internal/batch"
	"flashextract/internal/faults"
	"flashextract/internal/metrics"
)

// chaosSources builds a corpus large enough that the default 0.5 fault
// rate hits several documents on any seed. Chair names stay alphabetic so
// the learned token programs generalize to every document.
func chaosSources(n int) []batch.Source {
	names := []string{
		"Aeron", "Bistro", "Windsor", "Tulip", "Eames", "Panton",
		"Tolix", "Cesca", "Womb", "Wassily", "Acapulco", "Barcelona",
	}
	var sources []batch.Source
	for i := 0; i < n; i++ {
		doc := fmt.Sprintf("doc%02d.txt", i)
		price := fmt.Sprintf("%d.%02d", 10+i, (i*7)%100)
		sources = append(sources, batch.StringSource(doc, chairDoc(names[i%len(names)], price)))
	}
	return sources
}

// TestChaosDifferential is the core chaos guarantee: a run with the
// default (transient/output-neutral) fault sites armed produces NDJSON
// byte-identical to a fault-free run, for several seeds, because every
// injected read fault is recovered by the bounded retry loop and worker
// stalls only perturb scheduling. At least one seed must actually exercise
// the retry path, or the test proves nothing.
func TestChaosDifferential(t *testing.T) {
	prog := learnTextProgram(t)
	sources := chaosSources(12)

	var clean bytes.Buffer
	if _, err := batch.Run(context.Background(), batch.Options{
		Program: prog, DocType: "text", Workers: 3, Ordered: true,
	}, sources, &clean); err != nil {
		t.Fatal(err)
	}

	totalRetries := 0
	for seed := int64(1); seed <= 5; seed++ {
		reg := metrics.NewRegistry()
		var out bytes.Buffer
		sum, err := batch.Run(context.Background(), batch.Options{
			Program: prog, DocType: "text", Workers: 3, Ordered: true,
			Chaos: faults.New(seed), SelfCheck: true, Metrics: reg,
		}, sources, &out)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if out.String() != clean.String() {
			t.Errorf("seed %d: chaos output diverges from fault-free run:\nchaos:\n%sclean:\n%s",
				seed, out.String(), clean.String())
		}
		if sum.Errors != 0 {
			t.Errorf("seed %d: %d error records under transient-only chaos", seed, sum.Errors)
		}
		if got := int(reg.Counter(metrics.BatchRetries)); got != sum.Retries {
			t.Errorf("seed %d: metric batch_retries=%d, summary says %d", seed, got, sum.Retries)
		}
		totalRetries += sum.Retries
	}
	if totalRetries == 0 {
		t.Error("no seed exercised the retry path; differential is vacuous")
	}
}

// TestChaosDeterministicAcrossWorkerCounts pins the determinism claim the
// package documents: the same seed faults the same documents the same way
// regardless of pool size, so ordered output is identical at 1 and 4
// workers.
func TestChaosDeterministicAcrossWorkerCounts(t *testing.T) {
	prog := learnTextProgram(t)
	sources := chaosSources(8)
	var outs [2]bytes.Buffer
	for i, workers := range []int{1, 4} {
		if _, err := batch.Run(context.Background(), batch.Options{
			Program: prog, DocType: "text", Workers: workers, Ordered: true,
			Chaos: faults.New(7), SelfCheck: true,
		}, sources, &outs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if outs[0].String() != outs[1].String() {
		t.Errorf("seed 7 output differs between 1 and 4 workers:\n%s---\n%s",
			outs[0].String(), outs[1].String())
	}
}

// TestChaosRetryExhaustionIsReadError arms doc_read with up to 10 planned
// failures per document — more than the 3-attempt retry budget. Documents
// whose hash plans few failures recover (counted as retries); the ones
// that exhaust the budget must become structured "read" records naming
// the injected fault — never a crash, and never a silent drop.
func TestChaosRetryExhaustionIsReadError(t *testing.T) {
	prog := learnTextProgram(t)
	inj, err := faults.ParseSpec("seed=2,rate=1.0,failures=10,sites=batch.doc_read")
	if err != nil {
		t.Fatal(err)
	}
	sources := chaosSources(8)
	var out bytes.Buffer
	sum, err := batch.Run(context.Background(), batch.Options{
		Program: prog, DocType: "text", Workers: 2, Ordered: true, Chaos: inj,
	}, sources, &out)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Errors == 0 || sum.Retries == 0 {
		t.Fatalf("summary = %+v, want both exhausted and recovered documents", sum)
	}
	if sum.Docs != len(sources) {
		t.Fatalf("summary = %+v, want one record per document", sum)
	}
	for _, rec := range decodeLines(t, out.String()) {
		if !rec.OK && (rec.Kind != batch.KindRead || !strings.Contains(rec.Error, "injected")) {
			t.Errorf("record = %+v, want kind=read injected error", rec)
		}
	}
}

// TestChaosCorruptionIsParseNotPanic arms the destructive doc_parse site
// at rate 1.0, so every document's bytes are truncated at a hash-derived
// offset and suffixed with parser-hostile bytes. Every failure must be a
// structured record — kind "parse" when the CSV parser rejects the bytes,
// kind "run" when they still parse but extraction then fails — and the
// recover-to-"panic" backstop must never fire. At least one document must
// take the genuine parse-error path, or the classification is untested.
func TestChaosCorruptionIsParseNotPanic(t *testing.T) {
	prog := learnSheetProgram(t)
	inj, err := faults.ParseSpec("seed=3,rate=1.0,sites=batch.doc_parse")
	if err != nil {
		t.Fatal(err)
	}
	var sources []batch.Source
	for i := 0; i < 12; i++ {
		sources = append(sources, batch.StringSource(fmt.Sprintf("c%02d.csv", i),
			fmt.Sprintf("Name,Price\nBolt,%d.00\nNut,%d.50\n", i+1, i+2)))
	}
	var out bytes.Buffer
	sum, err := batch.Run(context.Background(), batch.Options{
		Program: prog, DocType: "sheet", Workers: 2, Ordered: true, Chaos: inj,
	}, sources, &out)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Errors == 0 {
		t.Fatalf("summary = %+v, want corruption-induced errors\n%s", sum, out.String())
	}
	parseKinds := 0
	for _, rec := range decodeLines(t, out.String()) {
		switch {
		case rec.Kind == batch.KindPanic:
			t.Errorf("record = %+v: corruption reached the panic backstop", rec)
		case rec.Kind == batch.KindParse:
			parseKinds++
			if !strings.Contains(rec.Error, "unterminated") {
				t.Errorf("parse record = %+v, want the substrate's own diagnostic", rec)
			}
		case !rec.OK && rec.Kind != batch.KindRun:
			t.Errorf("record = %+v, want kind parse or run for corrupted bytes", rec)
		}
	}
	if parseKinds == 0 {
		t.Errorf("no document took the parse-error path:\n%s", out.String())
	}
}

// TestChaosBudgetTripIsBudgetKind arms the engine.budget site: a budget
// tripped mid-run must classify as a structured "budget" record.
func TestChaosBudgetTripIsBudgetKind(t *testing.T) {
	prog := learnTextProgram(t)
	inj, err := faults.ParseSpec("seed=1,rate=1.0,sites=engine.budget")
	if err != nil {
		t.Fatal(err)
	}
	sources := chaosSources(3)
	var out bytes.Buffer
	sum, err := batch.Run(context.Background(), batch.Options{
		Program: prog, DocType: "text", Workers: 2, Ordered: true, Chaos: inj,
	}, sources, &out)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Errors != len(sources) {
		t.Fatalf("summary = %+v, want all docs budget-tripped\n%s", sum, out.String())
	}
	for _, rec := range decodeLines(t, out.String()) {
		if rec.OK || rec.Kind != batch.KindBudget {
			t.Errorf("record = %+v, want kind=budget", rec)
		}
	}
}

// TestChaosConservationUnderCancellation cancels a chaos run (worker
// stalls armed, so cancellation lands mid-stall) and audits the monitor's
// counters: submitted == processed, in-flight drained to zero, one record
// per processed document, no goroutines leaked. This pins the
// double-count/leak class of bug in the pool's accounting.
func TestChaosConservationUnderCancellation(t *testing.T) {
	prog := learnTextProgram(t)
	before := runtime.NumGoroutine()
	inj, err := faults.ParseSpec("seed=4,rate=1.0,delay=20ms,sites=batch.worker_slow")
	if err != nil {
		t.Fatal(err)
	}
	sources := chaosSources(24)
	mon := &batch.Monitor{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(15 * time.Millisecond)
		cancel()
	}()
	var out bytes.Buffer
	sum, err := batch.Run(ctx, batch.Options{
		Program: prog, DocType: "text", Workers: 2, Ordered: true,
		Chaos: inj, Monitor: mon,
	}, sources, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Cancelled {
		t.Fatalf("summary = %+v, want Cancelled (cancel raced past the run?)", sum)
	}
	if cerr := mon.ConservationError(); cerr != nil {
		t.Fatal(cerr)
	}
	h := mon.Health()
	if h.Submitted != int64(sum.Docs) || h.Processed != int64(sum.Docs) || h.InFlight != 0 {
		t.Fatalf("health = %+v, summary = %+v: counters out of conservation", h, sum)
	}
	if recs := decodeLines(t, out.String()); len(recs) != sum.Docs {
		t.Fatalf("emitted %d records, summary says %d", len(recs), sum.Docs)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutine leak: %d before, %d after", before, now)
	}
}

package batch_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flashextract/internal/batch"
	"flashextract/internal/core"
	"flashextract/internal/engine"
	"flashextract/internal/metrics"
	"flashextract/internal/schema"
	"flashextract/internal/sheetlang"
	"flashextract/internal/textlang"
	"flashextract/internal/weblang"
)

// learnTextProgram learns the chair-inventory program of the CLI tests and
// returns its serialized artifact.
func learnTextProgram(t *testing.T) []byte {
	t.Helper()
	doc := textlang.NewDocument("inventory\nChair: Aeron (price: $540.00)\nChair: Tulip (price: $99.99)\n")
	sch := schema.MustParse(`Struct(Names: Seq([name] String), Prices: Seq([price] Float))`)
	s := engine.NewSession(doc, sch)
	for _, ex := range []struct{ color, sub string }{
		{"name", "Aeron"}, {"name", "Tulip"}, {"price", "540.00"}, {"price", "99.99"},
	} {
		r, ok := doc.FindRegion(ex.sub, 0)
		if !ok {
			t.Fatalf("example %q not found", ex.sub)
		}
		if err := s.AddPositive(ex.color, r); err != nil {
			t.Fatal(err)
		}
	}
	return learnAndSave(t, s, doc.Language())
}

// learnSheetProgram learns a two-column part/price extraction over a CSV
// workbook. Sheet programs extract cell text verbatim, so documents whose
// cells hold "007"-style ints and ".5"-style floats reach the JSON emitter
// unchanged — the end-to-end regression the emitter fix guarantees.
func learnSheetProgram(t *testing.T) []byte {
	t.Helper()
	doc := sheetlang.MustFromCSV("Name,Price\nBolt,0.50\nNut,1.25\nWasher,2.00\n")
	sch := schema.MustParse(`Seq([rec] Struct(Part: [part] String, Price: [price] Float))`)
	s := engine.NewSession(doc, sch)
	for _, r := range []struct{ r1, c1, r2, c2 int }{{1, 0, 1, 1}, {2, 0, 2, 1}} {
		if err := s.AddPositive("rec", doc.Rect(r.r1, r.c1, r.r2, r.c2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddPositive("part", doc.CellAt(1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddPositive("price", doc.CellAt(1, 1)); err != nil {
		t.Fatal(err)
	}
	return learnAndSave(t, s, doc.Language())
}

func learnAndSave(t *testing.T, s *engine.Session, lang engine.Language) []byte {
	t.Helper()
	for _, fi := range s.Schema().Fields() {
		if _, _, err := s.Learn(fi.Color()); err != nil {
			t.Fatalf("learning %s: %v", fi.Color(), err)
		}
		if err := s.Commit(fi.Color()); err != nil {
			t.Fatal(err)
		}
	}
	q, err := s.Program()
	if err != nil {
		t.Fatal(err)
	}
	artifact, err := engine.SaveSchemaProgram(q, lang)
	if err != nil {
		t.Fatal(err)
	}
	return artifact
}

func chairDoc(name, price string) string {
	return fmt.Sprintf("inventory\nChair: %s (price: $%s)\n", name, price)
}

// decodeLines unmarshals every NDJSON line, failing on any invalid JSON.
func decodeLines(t *testing.T, out string) []batch.Record {
	t.Helper()
	var recs []batch.Record
	for i, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if !json.Valid([]byte(line)) {
			t.Fatalf("line %d is not valid JSON: %q", i, line)
		}
		var r batch.Record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		recs = append(recs, r)
	}
	return recs
}

func TestBatchEndToEnd(t *testing.T) {
	prog := learnTextProgram(t)
	sources := []batch.Source{
		batch.StringSource("a.txt", chairDoc("Bistro", "75.40")),
		batch.StringSource("b.txt", chairDoc("Windsor", "185.00")),
		batch.StringSource("c.txt", chairDoc("Tulip", "99.99")),
	}
	var out bytes.Buffer
	sum, err := batch.Run(context.Background(), batch.Options{
		Program: prog, DocType: "text", Workers: 2, Ordered: true,
	}, sources, &out)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Docs != 3 || sum.Errors != 0 || sum.Skipped != 0 || sum.Cancelled {
		t.Fatalf("summary = %+v", sum)
	}
	recs := decodeLines(t, out.String())
	if len(recs) != 3 {
		t.Fatalf("got %d records", len(recs))
	}
	for i, want := range []string{"Bistro", "Windsor", "Tulip"} {
		if recs[i].Index != i || !recs[i].OK || !strings.Contains(string(recs[i].Data), want) {
			t.Errorf("record %d = %+v, want data containing %q", i, recs[i], want)
		}
	}
}

// TestBatchValidJSONForHostileNumbers runs a sheet program over workbooks
// whose cells hold the number spellings that used to produce invalid JSON
// ("007", ".5", "+.5"). Every line must pass json.Valid and the values
// must arrive normalized.
func TestBatchValidJSONForHostileNumbers(t *testing.T) {
	prog := learnSheetProgram(t)
	sources := []batch.Source{
		batch.StringSource("zeros.csv", "Name,Price\nBolt,007\nNut,.5\n"),
		batch.StringSource("plus.csv", "Name,Price\nCog,+.5\nPin,3.\n"),
	}
	var out bytes.Buffer
	sum, err := batch.Run(context.Background(), batch.Options{
		Program: prog, DocType: "sheet", Workers: 2, Ordered: true,
	}, sources, &out)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Errors != 0 {
		t.Fatalf("summary = %+v\n%s", sum, out.String())
	}
	recs := decodeLines(t, out.String())
	if !strings.Contains(string(recs[0].Data), `"Price":7`) ||
		!strings.Contains(string(recs[0].Data), `"Price":0.5`) {
		t.Errorf("zeros.csv data = %s, want normalized 7 and 0.5", recs[0].Data)
	}
	if !strings.Contains(string(recs[1].Data), `"Price":0.5`) ||
		!strings.Contains(string(recs[1].Data), `"Price":3.0`) {
		t.Errorf("plus.csv data = %s, want normalized 0.5 and 3.0", recs[1].Data)
	}
}

// TestBatchGoldenNDJSON pins the exact ordered output byte stream.
func TestBatchGoldenNDJSON(t *testing.T) {
	prog := learnSheetProgram(t)
	sources := []batch.Source{
		batch.StringSource("one.csv", "Name,Price\nBolt,007\n"),
		batch.StringSource("two.csv", "Name,Price\nNut,.5\nCog,1.25\n"),
		{Name: "bad.csv", Open: func() ([]byte, error) { return nil, errors.New("disk on fire") }},
	}
	var out bytes.Buffer
	if _, err := batch.Run(context.Background(), batch.Options{
		Program: prog, DocType: "sheet", Workers: 3, Ordered: true,
	}, sources, &out); err != nil {
		t.Fatal(err)
	}
	want := `{"doc":"one.csv","index":0,"ok":true,"data":[{"Part":"Bolt","Price":7}]}
{"doc":"two.csv","index":1,"ok":true,"data":[{"Part":"Nut","Price":0.5},{"Part":"Cog","Price":1.25}]}
{"doc":"bad.csv","index":2,"ok":false,"kind":"read","error":"disk on fire"}
`
	if out.String() != want {
		t.Errorf("golden NDJSON mismatch:\ngot:\n%swant:\n%s", out.String(), want)
	}
}

// TestBatchFailureIsolation injects unreadable and unparseable documents
// among good ones: each must yield exactly one error record while the rest
// of the batch completes.
func TestBatchFailureIsolation(t *testing.T) {
	prog := learnSheetProgram(t)
	sources := []batch.Source{
		batch.StringSource("good1.csv", "Name,Price\nBolt,1.00\n"),
		{Name: "unreadable.csv", Open: func() ([]byte, error) { return nil, errors.New("permission denied") }},
		batch.StringSource("corrupt.csv", "Name,Price\n\"never closed,1.00\n"),
		batch.StringSource("good2.csv", "Name,Price\nNut,2.00\n"),
	}
	reg := metrics.NewRegistry()
	var out bytes.Buffer
	sum, err := batch.Run(context.Background(), batch.Options{
		Program: prog, DocType: "sheet", Workers: 4, Ordered: true, Metrics: reg,
	}, sources, &out)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Docs != 4 || sum.Errors != 2 || sum.Cancelled {
		t.Fatalf("summary = %+v\n%s", sum, out.String())
	}
	recs := decodeLines(t, out.String())
	if !recs[0].OK || recs[1].OK || recs[2].OK || !recs[3].OK {
		t.Fatalf("ok flags wrong: %+v", recs)
	}
	if !strings.Contains(recs[1].Error, "permission denied") {
		t.Errorf("unreadable error = %q", recs[1].Error)
	}
	if !strings.Contains(recs[2].Error, "unterminated") {
		t.Errorf("corrupt error = %q", recs[2].Error)
	}
	if got := reg.Counter(metrics.BatchDocs); got != 4 {
		t.Errorf("batch.docs_processed = %d, want 4", got)
	}
	if got := reg.Counter(metrics.BatchErrors); got != 2 {
		t.Errorf("batch.errors = %d, want 2", got)
	}
	snap := reg.Snapshot()
	if h, ok := snap.Histograms[metrics.BatchDocSeconds]; !ok || h.Count != 4 {
		t.Errorf("latency histogram = %+v", snap.Histograms)
	}
}

// TestBatchDocTimeout gives each document an already-unmeetable deadline:
// every record must be a structured deadline error, not a hang or a crash.
func TestBatchDocTimeout(t *testing.T) {
	prog := learnTextProgram(t)
	sources := []batch.Source{
		batch.StringSource("a.txt", chairDoc("Bistro", "75.40")),
		batch.StringSource("b.txt", chairDoc("Windsor", "185.00")),
	}
	var out bytes.Buffer
	sum, err := batch.Run(context.Background(), batch.Options{
		Program: prog, DocType: "text", Workers: 2, Ordered: true, DocTimeout: time.Nanosecond,
	}, sources, &out)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Errors != 2 {
		t.Fatalf("summary = %+v\n%s", sum, out.String())
	}
	for _, rec := range decodeLines(t, out.String()) {
		if rec.OK || (!strings.Contains(rec.Error, "deadline") && !strings.Contains(rec.Error, "budget")) {
			t.Errorf("record = %+v, want deadline error", rec)
		}
	}
}

// slowSource signals entered on entering Open, then blocks until
// released, to hold documents in flight.
func slowSource(name string, entered chan<- struct{}, release <-chan struct{}, data string) batch.Source {
	return batch.Source{Name: name, Open: func() ([]byte, error) {
		entered <- struct{}{}
		<-release
		return []byte(data), nil
	}}
}

// TestBatchCancelDrainsWithoutLeaks cancels mid-run and asserts: Run
// returns, every dispatched document still got exactly one record (a
// contiguous prefix in ordered mode), the rest are counted skipped, and no
// goroutines are left behind.
func TestBatchCancelDrainsWithoutLeaks(t *testing.T) {
	prog := learnTextProgram(t)
	before := runtime.NumGoroutine()

	entered := make(chan struct{}, 2)
	release := make(chan struct{})
	var once sync.Once
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var sources []batch.Source
	for i := 0; i < 16; i++ {
		name := fmt.Sprintf("doc%02d.txt", i)
		if i < 2 {
			// The first two documents block until the test cancels.
			sources = append(sources, slowSource(name, entered, release, chairDoc("Bistro", "75.40")))
		} else {
			sources = append(sources, batch.StringSource(name, chairDoc("Windsor", "185.00")))
		}
	}
	go func() {
		// Wait until both workers hold a blocking document, then cancel
		// and release them: the feeder must stop dispatching and the
		// workers must finish what they hold.
		<-entered
		<-entered
		cancel()
		once.Do(func() { close(release) })
	}()
	var out bytes.Buffer
	sum, err := batch.Run(ctx, batch.Options{
		Program: prog, DocType: "text", Workers: 2, Ordered: true,
	}, sources, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Cancelled {
		t.Fatalf("summary = %+v, want Cancelled", sum)
	}
	if sum.Docs+sum.Skipped != len(sources) {
		t.Fatalf("docs %d + skipped %d != %d inputs", sum.Docs, sum.Skipped, len(sources))
	}
	recs := decodeLines(t, out.String())
	if len(recs) != sum.Docs {
		t.Fatalf("emitted %d records, summary says %d", len(recs), sum.Docs)
	}
	for i, rec := range recs {
		if rec.Index != i {
			t.Fatalf("ordered drain emitted non-contiguous indices: %+v", recs)
		}
	}

	// All pool goroutines must have exited.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		buf := make([]byte, 1<<16)
		n := runtime.Stack(buf, true)
		t.Fatalf("goroutine leak: %d before, %d after\n%s", before, now, buf[:n])
	}
}

// TestBatchUnorderedCoversAll checks completion-order mode still emits one
// record per document with the right index labels.
func TestBatchUnorderedCoversAll(t *testing.T) {
	prog := learnTextProgram(t)
	var sources []batch.Source
	for i := 0; i < 12; i++ {
		sources = append(sources, batch.StringSource(fmt.Sprintf("d%02d", i), chairDoc("Bistro", "75.40")))
	}
	var out bytes.Buffer
	sum, err := batch.Run(context.Background(), batch.Options{
		Program: prog, DocType: "text", Workers: 4,
	}, sources, &out)
	if err != nil || sum.Docs != 12 || sum.Errors != 0 {
		t.Fatalf("summary = %+v, err = %v", sum, err)
	}
	seen := map[int]bool{}
	for _, rec := range decodeLines(t, out.String()) {
		if seen[rec.Index] {
			t.Fatalf("duplicate index %d", rec.Index)
		}
		seen[rec.Index] = true
	}
	if len(seen) != 12 {
		t.Fatalf("covered %d indices", len(seen))
	}
}

// countingSource is a ProgramSource that counts how often Run asks it.
type countingSource struct {
	prog  *engine.SchemaProgram
	calls int
}

func (c *countingSource) Program() *engine.SchemaProgram {
	c.calls++
	return c.prog
}

// countingSeq wraps a field's sequence program and counts its runs, so a
// test sees which program the workers ran.
type countingSeq struct {
	core.Program
	runs *atomic.Int64
}

func (c countingSeq) Exec(st core.State) (core.Value, error) {
	c.runs.Add(1)
	return c.Program.Exec(st)
}

// TestProgramSourceOncePerRun: Run asks its source once per run, whatever
// the worker count and with the prefilter analysis on, and every document
// runs the one program it returned, with the same records as a run that
// deserializes Options.Program.
func TestProgramSourceOncePerRun(t *testing.T) {
	artifact := learnTextProgram(t)
	lang, err := batch.LanguageFor("text")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := engine.LoadSchemaProgram(artifact, lang)
	if err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int64
	wrapped := 0
	for _, fp := range prog.Fields {
		if fp.Ancestor == nil && fp.IsSeq() {
			fp.P = countingSeq{fp.P, &runs}
			wrapped++
		}
	}
	if wrapped == 0 {
		t.Fatal("the program has no top-level sequence field to count")
	}
	var sources []batch.Source
	for i := 0; i < 12; i++ {
		sources = append(sources, batch.StringSource(fmt.Sprintf("d%02d.txt", i), chairDoc(fmt.Sprint("Chair", i), "75.40")))
	}
	sources = append(sources, batch.StringSource("prose.txt", "not a chair document at all"))
	run := func(opts batch.Options) string {
		var out bytes.Buffer
		sum, err := batch.Run(context.Background(), opts, sources, &out)
		if err != nil || sum.Docs != len(sources) {
			t.Fatalf("summary = %+v, err = %v", sum, err)
		}
		return out.String()
	}
	want := run(batch.Options{Program: artifact, DocType: "text", Ordered: true})
	for _, workers := range []int{1, 4} {
		runs.Store(0)
		src := &countingSource{prog: prog}
		got := run(batch.Options{Programs: src, DocType: "text", Workers: workers, Ordered: true, Prefilter: true})
		if src.calls != 1 {
			t.Errorf("%d workers: Run asked its source %d times, want once", workers, src.calls)
		}
		if n := runs.Load(); n != int64(wrapped*len(sources)) {
			t.Errorf("%d workers: the source's program ran %d field extractions, want %d", workers, n, wrapped*len(sources))
		}
		if got != want {
			t.Errorf("%d workers: records differ from the deserialized program's:\n%s\nwant:\n%s", workers, got, want)
		}
	}
}

// TestLanguageForIsTheDocumentsLanguage: LanguageFor returns, without
// opening a document, the language every document of its type returns,
// and refuses an unknown type.
func TestLanguageForIsTheDocumentsLanguage(t *testing.T) {
	docs := map[string]engine.Document{
		"text":  textlang.NewDocument("a\n"),
		"web":   weblang.MustNewDocument("<p>a</p>"),
		"sheet": sheetlang.MustFromCSV("a,1\n"),
	}
	for docType, doc := range docs {
		lang, err := batch.LanguageFor(docType)
		if err != nil || lang != doc.Language() {
			t.Errorf("LanguageFor(%q) = %v, %v; the document's language is %v", docType, lang, err, doc.Language())
		}
	}
	if lang, err := batch.LanguageFor("pdf"); err == nil {
		t.Errorf("LanguageFor(\"pdf\") = %v", lang)
	}
}

func TestBatchBadOptions(t *testing.T) {
	prog := learnTextProgram(t)
	var out bytes.Buffer
	if _, err := batch.Run(context.Background(), batch.Options{Program: prog, DocType: "bogus"}, nil, &out); err == nil {
		t.Error("unknown doc type accepted")
	}
	if _, err := batch.Run(context.Background(), batch.Options{Program: []byte("not json"), DocType: "text"}, nil, &out); err == nil {
		t.Error("corrupt program accepted")
	}
	// Mismatched type: a text program loaded as a sheet program must fail
	// up front, not per document.
	if _, err := batch.Run(context.Background(), batch.Options{Program: prog, DocType: "sheet"}, nil, &out); err == nil {
		t.Error("text program accepted for sheet batch")
	}
}

// failingWriter errors after the first write.
type failingWriter struct{ n int }

func (w *failingWriter) Write(p []byte) (int, error) {
	w.n++
	if w.n > 1 {
		return 0, errors.New("pipe closed")
	}
	return len(p), nil
}

func TestBatchWriteErrorSurfaces(t *testing.T) {
	prog := learnTextProgram(t)
	sources := []batch.Source{
		batch.StringSource("a", chairDoc("Bistro", "75.40")),
		batch.StringSource("b", chairDoc("Windsor", "185.00")),
		batch.StringSource("c", chairDoc("Tulip", "99.99")),
	}
	_, err := batch.Run(context.Background(), batch.Options{
		Program: prog, DocType: "text", Workers: 1, Ordered: true,
	}, sources, &failingWriter{})
	if err == nil || !strings.Contains(err.Error(), "pipe closed") {
		t.Fatalf("err = %v, want write error", err)
	}
}

func TestFileSources(t *testing.T) {
	dir := t.TempDir()
	for _, n := range []string{"b.txt", "a.txt", "c.log"} {
		if err := os.WriteFile(filepath.Join(dir, n), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Overlapping patterns must dedupe; order must be sorted; a path that
	// matches nothing is kept, so its Open reports the error.
	missing := filepath.Join(dir, "missing.txt")
	sources, err := batch.FileSources([]string{
		filepath.Join(dir, "*.txt"),
		filepath.Join(dir, "a.txt"),
		filepath.Join(dir, "*"),
		missing,
	})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, s := range sources {
		names = append(names, filepath.Base(s.Name))
	}
	want := []string{"a.txt", "b.txt", "c.log", "missing.txt"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("sources = %v, want %v", names, want)
	}
	if _, err := sources[3].Open(); err == nil {
		t.Errorf("Open(%s) succeeded", missing)
	}
	if _, err := batch.FileSources([]string{"[bad-pattern"}); err == nil {
		t.Error("malformed pattern accepted")
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"flashextract/internal/batch"
	"flashextract/internal/engine"
	"flashextract/internal/prefilter"
	"flashextract/internal/schema"
	"flashextract/internal/textlang"
	"flashextract/internal/trace"
)

// batchLogs runs one saved log program over a seeded collection of
// distinct logs with batch.Run (ordered, default options, nproc workers),
// pass after pass. Every document is real extraction work: there are no
// duplicates and no documents the program extracts nothing from, because
// no measured collection gives their shares. One operation is one
// document.
type batchLogs struct {
	program []byte
	prog    *engine.SchemaProgram // program, compiled once for the layer replay
	sources []batch.Source
	docs    []string
	// want is the oracle's record data as export.JSONValue renders it, and
	// records the whole output line batch.Run must write for each source.
	want             []json.RawMessage
	records          [][]byte
	examples, fields int
}

func setupBatchLogs(cfg config) (workload, error) {
	logs, minRecords, maxRecords := 200, 20, 400
	// The training log is as long as synth-log's: synthesis memory grows
	// steeply with length, and on a longer log it would set this
	// workload's peak memory, which should reflect the run path.
	train := synthRecords
	if cfg.tiny {
		logs, maxRecords, train = 10, 60, 60
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	m := schema.MustParse(logSchema)
	b := &batchLogs{}
	if err := b.learn(m, genLog("train", rng.Int63(), train)); err != nil {
		return nil, err
	}
	// Log lengths are spread evenly over [minRecords, maxRecords], so seeds
	// vary the content and the order of the collection but not the amount
	// of work in it.
	order := rng.Perm(logs)
	for i, k := range order {
		records := minRecords + k*(maxRecords-minRecords)/(logs-1)
		lg := genLog(fmt.Sprintf("log-%03d", k), rng.Int63(), records)
		doc := textlang.NewDocument(lg.source)
		want, err := expectedRecord(m, doc, lg.regions(doc))
		if err != nil {
			return nil, fmt.Errorf("expected record of %s: %w", lg.name, err)
		}
		record, err := json.Marshal(batch.Record{Doc: lg.name, Index: i, OK: true, Data: want})
		if err != nil {
			return nil, err
		}
		b.sources = append(b.sources, batch.StringSource(lg.name, lg.source))
		b.docs = append(b.docs, lg.source)
		b.want = append(b.want, want)
		b.records = append(b.records, record)
	}
	return b, nil
}

// learn synthesizes the saved program from the training log's first two
// golden instances per field.
func (b *batchLogs) learn(m *schema.Schema, train logDoc) error {
	doc := textlang.NewDocument(train.source)
	golden := train.regions(doc)
	sess := engine.NewSession(doc, m)
	for _, c := range logColors {
		for _, r := range golden[c][:2] {
			if err := sess.AddPositive(c, r); err != nil {
				return err
			}
			b.examples++
		}
		b.fields++
		if _, _, err := sess.Learn(c); err != nil {
			return fmt.Errorf("learning %s: %w", c, err)
		}
		if err := sess.Commit(c); err != nil {
			return err
		}
	}
	q, err := sess.Program()
	if err != nil {
		return err
	}
	if b.program, err = engine.SaveSchemaProgram(q, doc.Language()); err != nil {
		return err
	}
	b.prog, err = engine.LoadSchemaProgram(b.program, doc.Language())
	return err
}

// pass runs batch.Run once over the collection and checks every record.
// With a tracer, the pass runs under a root span of it: batch.Run then
// nests each document's span tree under that root instead of under a
// tracer of its own, so the tracer's dropped-span count covers the pass.
// The monitor keeps each document's tree in its ring, as in a traced
// deployment.
func (b *batchLogs) pass(ctx context.Context, tr *trace.Tracer) (window, error) {
	lat := &docLatencies{}
	opts := batch.Options{Program: b.program, DocType: "text", Workers: nproc, Ordered: true, Metrics: lat}
	if tr != nil {
		var root *trace.Span
		ctx, root = tr.StartRoot(ctx, "pass")
		defer root.End()
		opts.Monitor = &batch.Monitor{}
	}
	out := &recordChecker{want: b.records}
	sum, err := batch.Run(ctx, opts, b.sources, out)
	if err != nil {
		return window{}, fmt.Errorf("batch run: %w", err)
	}
	return window{lat: lat.samples, busy: sum.Elapsed, attempted: int64(len(b.sources)), failed: out.failures()}, nil
}

// recordChecker is the writer batch.Run streams its records into. It
// compares each line with the record the oracle expects as the line
// arrives, so a pass keeps no copy of its output, and the garbage a copy
// would leave does not move the run's peak memory.
type recordChecker struct {
	want    [][]byte
	next    int
	failed  int64
	partial []byte // the start of a line split across writes
}

func (c *recordChecker) Write(p []byte) (int, error) {
	n := len(p)
	for {
		line, rest, found := bytes.Cut(p, []byte("\n"))
		if !found {
			c.partial = append(c.partial, line...)
			return n, nil
		}
		if len(c.partial) > 0 {
			line = append(c.partial, line...)
			c.partial = nil
		}
		if c.next >= len(c.want) || !bytes.Equal(line, c.want[c.next]) {
			c.failed++
		}
		c.next++
		p = rest
	}
}

// failures counts the lines that differ from the oracle's records and the
// records never written.
func (c *recordChecker) failures() int64 {
	missing := int64(max(len(c.want)-c.next, 0))
	if len(c.partial) > 0 {
		missing++
	}
	return c.failed + missing
}

// measure runs whole passes until d has elapsed.
func (b *batchLogs) measure(ctx context.Context, d time.Duration) (window, error) {
	var w window
	for end := time.Now().Add(d); w.attempted == 0 || time.Now().Before(end); {
		p, err := b.pass(ctx, nil)
		if err != nil {
			return w, err
		}
		w.add(p)
	}
	return w, nil
}

// layers repeats, until d has elapsed, an untraced pass, a traced pass and
// a replay of the collection through the run-path layers, so that the
// three see the same host conditions.
func (b *batchLogs) layers(ctx context.Context, d time.Duration) (map[string]float64, window, error) {
	filter, err := prefilter.FromSchemaProgram(b.prog, "text")
	if err != nil {
		return nil, window{}, err
	}
	var ref, traced, replayed window
	var alloc allocDelta
	var dropped int64
	rp := newRunPath()
	for end := time.Now().Add(d); ref.attempted == 0 || time.Now().Before(end); {
		alloc.start()
		p, err := b.pass(ctx, nil)
		alloc.stop()
		if err != nil {
			return nil, ref, err
		}
		ref.add(p)
		tr := trace.NewTracer()
		if p, err = b.pass(ctx, tr); err != nil {
			return nil, ref, err
		}
		traced.add(p)
		dropped += tr.Dropped()
		for i, src := range b.docs {
			replayed.attempted++
			if !rp.doc(ctx, b.prog, filter, "text", []byte(src), b.want[i]) {
				replayed.failed++
			}
		}
	}
	m := map[string]float64{}
	rp.metrics(m)
	alloc.metrics(m, len(ref.lat))
	traceOverhead(m, traced.busy, ref.busy)
	m["trace.dropped_spans"] = float64(dropped)
	// Worker time per document: the pass's wall time on every worker.
	perDoc := time.Duration(float64(ref.busy) * float64(nproc) / float64(len(ref.lat)))
	m["batch.overhead_us"] = us(perDoc - rp.pipeline())
	ref.add(traced)
	ref.add(replayed)
	return m, ref, nil
}

func (b *batchLogs) examplesPerField() float64 { return ratio(float64(b.examples), float64(b.fields)) }

func (b *batchLogs) close() error { return nil }

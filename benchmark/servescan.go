package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"flashextract/internal/batch"
	"flashextract/internal/bench"
	"flashextract/internal/bench/corpus"
	"flashextract/internal/engine"
	"flashextract/internal/metrics"
	"flashextract/internal/prefilter"
	"flashextract/internal/serve"
	"flashextract/internal/trace"
)

// serveScan drives one in-process serve.Server with nproc closed-loop
// NDJSON streams. Each request is a scan of one corpus document under that
// task's own program, drawn uniformly (seeded) from the tasks whose
// learned program reproduces the golden record. One operation is one
// request.
type serveScan struct {
	seed  int64
	dir   string // the program registry directory, removed by close
	reg   *serve.Registry
	srv   *serve.Server
	sink  *metrics.Registry
	tasks []scanTask
	// calls numbers the stream runs, so each draws its own seeded sequence.
	calls            int64
	examples, fields int
}

// scanTask is one corpus task as serve-scan requests it.
type scanTask struct {
	name, docType string
	source        string
	line          []byte // the scan request frame, newline-terminated
	// want is the oracle's record data as export.JSONValue renders it, and
	// frame the whole response frame the server must answer line with.
	want  json.RawMessage
	frame []byte
}

func setupServeScan(cfg config) (workload, error) {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.dir, "serve-programs-")
	if err != nil {
		return nil, err
	}
	s := &serveScan{seed: cfg.seed, dir: dir}
	if err := s.load(cfg); err != nil {
		_ = os.RemoveAll(dir) // the set-up error is what the caller reports
		return nil, err
	}
	return s, nil
}

// load learns and saves every task's program into the registry directory
// and starts the server over it.
func (s *serveScan) load(cfg config) error {
	byName := map[string]string{}
	for i, t := range corpus.All() {
		if _, excluded := serveExcluded[t.Name]; excluded || cfg.tiny && i%11 != 0 {
			continue
		}
		name := registryName(t.Name)
		if prev, dup := byName[name]; dup {
			return fmt.Errorf("tasks %q and %q share the registry name %s", prev, t.Name, name)
		}
		byName[name] = t.Name
		raw, err := s.learn(t)
		if err != nil {
			return fmt.Errorf("%s: %w", t.Name, err)
		}
		if err := os.WriteFile(filepath.Join(s.dir, fmt.Sprintf("%s@1.%s.json", name, t.Domain)), raw, 0o644); err != nil {
			return err
		}
		want, err := expectedRecord(t.Schema, t.Doc, t.Golden)
		if err != nil {
			return fmt.Errorf("expected record of %s: %w", t.Name, err)
		}
		line, err := json.Marshal(serve.Request{ID: name, Op: serve.OpScan, Program: name, DocName: t.Name, Content: t.Source})
		if err != nil {
			return err
		}
		record, err := json.Marshal(batch.Record{Doc: t.Name, OK: true, Data: want})
		if err != nil {
			return err
		}
		frame, err := json.Marshal(serve.Response{ID: name, Op: serve.OpScan, OK: true, Record: record})
		if err != nil {
			return err
		}
		s.tasks = append(s.tasks, scanTask{name: name, docType: t.Domain, source: t.Source,
			line: append(line, '\n'), want: want, frame: frame})
	}
	s.reg = serve.NewRegistry(s.dir, 0)
	if _, _, err := s.reg.Load(); err != nil {
		return err
	}
	s.sink = metrics.NewRegistry()
	var err error
	s.srv, err = serve.New(serve.Options{Registry: s.reg, Metrics: s.sink})
	return err
}

// learn synthesizes a task's program from all of its golden instances as
// positive examples, committing fields in schema order.
func (s *serveScan) learn(t *bench.Task) ([]byte, error) {
	sess := engine.NewSession(t.Doc, t.Schema)
	for _, fi := range t.Schema.Fields() {
		for _, r := range t.Golden[fi.Color()] {
			if err := sess.AddPositive(fi.Color(), r); err != nil {
				return nil, err
			}
			s.examples++
		}
		s.fields++
		if _, _, err := sess.Learn(fi.Color()); err != nil {
			return nil, err
		}
		if err := sess.Commit(fi.Color()); err != nil {
			return nil, err
		}
	}
	q, err := sess.Program()
	if err != nil {
		return nil, err
	}
	return engine.SaveSchemaProgram(q, t.Doc.Language())
}

// check reports whether frame (newline-terminated or not) is the response
// the oracle expects.
func (t scanTask) check(frame []byte) bool {
	return bytes.Equal(bytes.TrimSuffix(frame, []byte("\n")), t.frame)
}

// clients runs nproc clients concurrently until d has elapsed, each
// drawing tasks from its own seeded sequence; busy is the wall time of the
// whole stretch.
func (s *serveScan) clients(d time.Duration, client func(rng *rand.Rand, end time.Time) (window, error)) (window, error) {
	s.calls++
	start := time.Now()
	ws := make([]window, nproc)
	errs := make([]error, nproc)
	var wg sync.WaitGroup
	for i := range ws {
		rng := rand.New(rand.NewSource(s.seed*1_000_003 + s.calls*101 + int64(i)))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ws[i], errs[i] = client(rng, start.Add(d))
		}(i)
	}
	wg.Wait()
	var w window
	for i := range ws {
		if errs[i] != nil {
			return w, errs[i]
		}
		w.add(ws[i])
	}
	w.busy = time.Since(start)
	return w, nil
}

// streams runs nproc closed-loop streams into srv until d has elapsed.
func (s *serveScan) streams(ctx context.Context, srv *serve.Server, d time.Duration) (window, error) {
	return s.clients(d, func(rng *rand.Rand, end time.Time) (window, error) {
		return s.stream(ctx, srv, rng, end)
	})
}

// stream is one client: it opens an NDJSON stream, sends a request, waits
// for its response, and repeats until end.
func (s *serveScan) stream(ctx context.Context, srv *serve.Server, rng *rand.Rand, end time.Time) (window, error) {
	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	served := make(chan error, 1)
	go func() {
		err := srv.Serve(ctx, inR, outW)
		// Unblock the client if Serve stopped before the client did.
		inR.Close()
		outW.Close()
		served <- err
	}()
	var w window
	// Frames are read in place, so the client allocates nothing per request;
	// the buffer holds the largest response frame of the corpus many times.
	rd := bufio.NewReaderSize(outR, 1<<20)
	_, err := rd.ReadSlice('\n') // the ready frame
	for err == nil && (w.attempted == 0 || time.Now().Before(end)) {
		t := s.tasks[rng.Intn(len(s.tasks))]
		start := time.Now()
		if _, err = inW.Write(t.line); err != nil {
			break
		}
		var frame []byte
		if frame, err = rd.ReadSlice('\n'); err != nil {
			break
		}
		w.record(time.Since(start), t.check(frame))
	}
	inW.Close()
	if serr := <-served; err == nil {
		err = serr
	}
	if err != nil {
		return w, fmt.Errorf("serve stream: %w", err)
	}
	return w, nil
}

func (s *serveScan) measure(ctx context.Context, d time.Duration) (window, error) {
	return s.streams(ctx, s.srv, d)
}

// layers repeats four times, each for a sixteenth of d: streams into the
// server (the reference), streams into a second server over the same
// registry with tracing on, HandleLine calls without a stream, and a replay
// of every task's document through the run-path layers. Interleaving them
// lets the four see the same host conditions.
func (s *serveScan) layers(ctx context.Context, d time.Duration) (map[string]float64, window, error) {
	tsrv, err := serve.New(serve.Options{Registry: s.reg, Trace: true, Metrics: s.sink})
	if err != nil {
		return nil, window{}, err
	}
	progs, err := s.compileTasks()
	if err != nil {
		return nil, window{}, err
	}
	overloaded0 := s.sink.Counter(metrics.ServeOverloaded)
	var ref, traced, handled window
	var alloc allocDelta
	var compiles int64
	rep := replayed{path: newRunPath()}
	for i := 0; i < 4; i++ {
		compiles0, err := s.compiles()
		if err != nil {
			return nil, ref, err
		}
		alloc.start()
		w, err := s.streams(ctx, s.srv, d/16)
		alloc.stop()
		if err != nil {
			return nil, ref, err
		}
		ref.add(w)
		if w, err = s.streams(ctx, tsrv, d/16); err != nil {
			return nil, ref, err
		}
		traced.add(w)
		compiles1, err := s.compiles()
		if err != nil {
			return nil, ref, err
		}
		compiles += compiles1 - compiles0
		if w, err = s.handleLines(ctx, d/16); err != nil {
			return nil, ref, err
		}
		handled.add(w)
		if err := s.replay(ctx, progs, d/16, &rep); err != nil {
			return nil, ref, err
		}
	}
	m := map[string]float64{}
	rep.path.metrics(m)
	alloc.metrics(m, len(ref.lat))
	// Traced and untraced stretches are closed loops of equal length, so
	// their summed latencies both come to about their wall time; tracing
	// shows as fewer, slower requests. Compare the mean request.
	traceOverhead(m, meanLatency(traced), meanLatency(ref))
	m["trace.dropped_spans"] = float64(rep.dropped)
	p50, h50 := ref.percentiles(0.5)[0], handled.percentiles(0.5)[0]
	m["serve.handle_p50_us"] = us(h50)
	m["serve.stream_us"] = us(p50 - h50)
	m["serve.compiles_per_req"] = ratio(float64(compiles), float64(len(ref.lat)+len(traced.lat)))
	m["serve.overloaded"] = float64(s.sink.Counter(metrics.ServeOverloaded) - overloaded0)
	m["batch.overhead_us"] = us(rep.batchTime/time.Duration(rep.batchRuns) - rep.path.pipeline())
	ref.add(handled)
	ref.add(traced)
	ref.add(rep.checked)
	return m, ref, nil
}

// meanLatency is the mean latency of a window's operations.
func meanLatency(w window) time.Duration {
	if len(w.lat) == 0 {
		return 0
	}
	var sum time.Duration
	for _, l := range w.lat {
		sum += l
	}
	return sum / time.Duration(len(w.lat))
}

// compiles is the registry's total program compilations, read from the
// /programs handler.
func (s *serveScan) compiles() (int64, error) {
	rec := httptest.NewRecorder()
	s.srv.ProgramsHandler()(rec, httptest.NewRequest(http.MethodGet, "/programs", nil))
	var file struct {
		Programs []struct {
			Compiles int64 `json:"compiles"`
		} `json:"programs"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &file); err != nil {
		return 0, fmt.Errorf("reading /programs: %w", err)
	}
	var n int64
	for _, p := range file.Programs {
		n += p.Compiles
	}
	return n, nil
}

// handleLines answers requests with HandleLine from nproc callers, without
// a stream, until d has elapsed.
func (s *serveScan) handleLines(ctx context.Context, d time.Duration) (window, error) {
	return s.clients(d, func(rng *rand.Rand, end time.Time) (window, error) {
		var w window
		for w.attempted == 0 || time.Now().Before(end) {
			t := s.tasks[rng.Intn(len(s.tasks))]
			start := time.Now()
			resp := s.srv.HandleLine(ctx, t.line)
			lat := time.Since(start)
			frame, err := json.Marshal(resp)
			w.record(lat, err == nil && t.check(frame))
		}
		return w, nil
	})
}

// replayed is what serveScan.replay measured.
type replayed struct {
	path    *runPath
	checked window // the run-path replays, each checked against the oracle
	// batchTime is the time of batchRuns untraced one-document batch.Run
	// calls.
	batchTime time.Duration
	batchRuns int64
	// dropped counts the spans the traced one-document runs dropped.
	dropped int64
}

// compiledTask is a task's program as the registry resolves it and as the
// run-path replay runs it.
type compiledTask struct {
	entry  *serve.Entry
	prog   *engine.SchemaProgram
	filter *prefilter.Filter
}

func (s *serveScan) compileTasks() ([]compiledTask, error) {
	progs := make([]compiledTask, len(s.tasks))
	for i, t := range s.tasks {
		e, err := s.reg.Resolve(t.name)
		if err != nil {
			return nil, err
		}
		lang, err := batch.LanguageFor(t.docType)
		if err != nil {
			return nil, err
		}
		prog, err := engine.LoadSchemaProgram(e.Raw(), lang)
		if err != nil {
			return nil, err
		}
		f, err := prefilter.FromSchemaProgram(prog, t.docType)
		if err != nil {
			return nil, err
		}
		progs[i] = compiledTask{entry: e, prog: prog, filter: f}
	}
	return progs, nil
}

// replay sends every task's document through the run-path layers, and
// through a one-document batch.Run as a scan runs it, until d has elapsed,
// adding to r. The server's per-request tracers are internal to it, so on
// the first sweep each document also runs once more under a root span of a
// tracer the benchmark owns: batch.Run nests the document's tree under it,
// as a traced server nests it under the request's root, and the tracer's
// dropped-span count stands in for the server's.
func (s *serveScan) replay(ctx context.Context, progs []compiledTask, d time.Duration, r *replayed) error {
	for sweep, end := 0, time.Now().Add(d); sweep == 0 || time.Now().Before(end); sweep++ {
		for i, t := range s.tasks {
			r.checked.attempted++
			if !r.path.doc(ctx, progs[i].prog, progs[i].filter, t.docType, []byte(t.source), t.want) {
				r.checked.failed++
			}
			opts := batch.Options{Programs: progs[i].entry, DocType: t.docType, Workers: 1, Ordered: true}
			src := []batch.Source{batch.StringSource(t.name, t.source)}
			var out bytes.Buffer
			start := time.Now()
			_, err := batch.Run(ctx, opts, src, &out)
			r.batchTime += time.Since(start)
			r.batchRuns++
			if err != nil {
				return fmt.Errorf("batch run: %w", err)
			}
			if sweep > 0 {
				continue
			}
			tr := trace.NewTracer()
			tctx, root := tr.StartRoot(ctx, "request:"+serve.OpScan)
			_, err = batch.Run(tctx, opts, src, &out)
			root.End()
			if err != nil {
				return fmt.Errorf("traced batch run: %w", err)
			}
			r.dropped += tr.Dropped()
		}
	}
	return nil
}

func (s *serveScan) examplesPerField() float64 { return ratio(float64(s.examples), float64(s.fields)) }

func (s *serveScan) close() error { return os.RemoveAll(s.dir) }

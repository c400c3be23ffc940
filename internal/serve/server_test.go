package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"flashextract/internal/metrics"
	"flashextract/internal/serve"
)

func TestNewRequiresRegistry(t *testing.T) {
	if _, err := serve.New(serve.Options{}); err == nil {
		t.Fatal("New accepted a nil registry")
	}
}

func TestHandleLineScan(t *testing.T) {
	s := newServer(t, programDir(t), serve.Options{})
	resp := s.HandleLine(context.Background(),
		[]byte(`{"id":"h1","op":"scan","program":"chairs","content":"`+
			`inventory\nChair: Bistro (price: $75.40)\n"}`))
	if !resp.OK || resp.Error != nil {
		t.Fatalf("scan failed: %+v", resp)
	}
	if resp.ID != "h1" || resp.Op != serve.OpScan {
		t.Fatalf("response does not echo the request: %+v", resp)
	}
	if !strings.Contains(string(resp.Record), `"Prices":[75.40]`) {
		t.Fatalf("record = %s", resp.Record)
	}
	if got := s.InflightDocs(); got != 0 {
		t.Fatalf("in-flight docs not released: %d", got)
	}
}

// TestHandleLineInvariant: every input — valid, malformed, or hostile —
// yields exactly one well-formed frame: ok xor error.
func TestHandleLineInvariant(t *testing.T) {
	s := newServer(t, programDir(t), serve.Options{})
	inputs := []string{
		`{"id":"1","op":"list_programs"}`,
		`{"id":"2","op":"reload"}`,
		`{"id":"3","op":"close"}`,
		`{"id":"4","op":"scan","program":"nope","content":"x"}`,
		`not json`,
		`null`,
		``,
		`{"op":"scan_batch","program":"chairs","docs":[]}`,
	}
	for _, in := range inputs {
		resp := s.HandleLine(context.Background(), []byte(in))
		if resp.OK == (resp.Error != nil) {
			t.Errorf("input %q: frame is not ok xor error: %+v", in, resp)
		}
		if _, err := json.Marshal(resp); err != nil {
			t.Errorf("input %q: response does not marshal: %v", in, err)
		}
	}
}

func TestHandleLineRejectsClose(t *testing.T) {
	s := newServer(t, programDir(t), serve.Options{})
	resp := s.HandleLine(context.Background(), []byte(`{"id":"c","op":"close"}`))
	if resp.Error == nil || resp.Error.Code != serve.CodeBadRequest {
		t.Fatalf("close over the sync transport = %+v, want bad_request", resp)
	}
}

func TestServeMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	s := newServer(t, programDir(t), serve.Options{Metrics: reg, MaxInflight: 1})
	ctx := context.Background()
	s.HandleLine(ctx, []byte(`{"id":"1","op":"list_programs"}`))
	s.HandleLine(ctx, []byte(`{"id":"2","op":"scan","program":"nope","content":"x"}`))
	s.HandleLine(ctx, []byte(`{"id":"3","op":"scan_batch","program":"chairs","docs":[{"content":"a"},{"content":"b"}]}`))
	s.HandleLine(ctx, []byte(`{"id":"4","op":"reload"}`))
	if got := reg.Counter(metrics.ServeRequests); got != 4 {
		t.Errorf("ServeRequests = %d, want 4", got)
	}
	if got := reg.Counter(metrics.ServeErrors); got != 2 {
		t.Errorf("ServeErrors = %d, want 2 (unknown program + overloaded)", got)
	}
	if got := reg.Counter(metrics.ServeOverloaded); got != 1 {
		t.Errorf("ServeOverloaded = %d, want 1", got)
	}
	if got := reg.Counter(metrics.ServeReloads); got != 1 {
		t.Errorf("ServeReloads = %d, want 1", got)
	}
}

func TestRPCHandler(t *testing.T) {
	s := newServer(t, programDir(t), serve.Options{})
	h := s.RPCHandler()

	rr := httptest.NewRecorder()
	h(rr, httptest.NewRequest(http.MethodGet, "/rpc", nil))
	if rr.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /rpc = %d, want 405", rr.Code)
	}

	body := strings.NewReader(`{"id":"r1","op":"scan","program":"chairs","content":"inventory\nChair: Bistro (price: $75.40)\n"}` + "\n")
	rr = httptest.NewRecorder()
	h(rr, httptest.NewRequest(http.MethodPost, "/rpc", body))
	if rr.Code != http.StatusOK {
		t.Fatalf("POST /rpc = %d, want 200", rr.Code)
	}
	if got := rr.Header().Get("Content-Type"); got != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", got)
	}
	out := rr.Body.String()
	if strings.Count(out, "\n") != 1 {
		t.Fatalf("POST /rpc wrote %d frames, want exactly 1: %q", strings.Count(out, "\n"), out)
	}
	var resp serve.Response
	if err := json.Unmarshal([]byte(out), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.ID != "r1" {
		t.Fatalf("rpc response = %+v", resp)
	}

	// close is stream-level and refused over HTTP too.
	rr = httptest.NewRecorder()
	h(rr, httptest.NewRequest(http.MethodPost, "/rpc", strings.NewReader(`{"id":"c","op":"close"}`)))
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Error == nil || resp.Error.Code != serve.CodeBadRequest {
		t.Fatalf("close over /rpc = %+v, want bad_request", resp)
	}
}

func TestProgramsHandler(t *testing.T) {
	s := newServer(t, programDir(t), serve.Options{})
	// One successful scan and one failing document, so the counters move.
	s.HandleLine(context.Background(), []byte(`{"id":"1","op":"scan","program":"chairs","content":"inventory\nChair: Bistro (price: $75.40)\n"}`))

	rr := httptest.NewRecorder()
	s.ProgramsHandler()(rr, httptest.NewRequest(http.MethodGet, "/programs", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("GET /programs = %d", rr.Code)
	}
	var file struct {
		Schema   string `json:"schema"`
		Programs []struct {
			Ref      string `json:"ref"`
			DocType  string `json:"doc_type"`
			Digest   string `json:"digest"`
			Compiles int64  `json:"compiles"`
			Scans    int64  `json:"scans"`
			Docs     int64  `json:"docs"`
			Errors   int64  `json:"errors"`
		} `json:"programs"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	if file.Schema != "flashextract-serve-programs/v1" {
		t.Fatalf("schema = %q", file.Schema)
	}
	if len(file.Programs) != 1 {
		t.Fatalf("programs = %+v", file.Programs)
	}
	p := file.Programs[0]
	if p.Ref != "chairs@1" || p.DocType != "text" || len(p.Digest) != 64 {
		t.Fatalf("program listing = %+v", p)
	}
	if p.Scans != 1 || p.Docs != 1 || p.Errors != 0 {
		t.Fatalf("serving counters = scans=%d docs=%d errors=%d, want 1/1/0", p.Scans, p.Docs, p.Errors)
	}
	if p.Compiles != 1 {
		t.Fatalf("compiles = %d, want the one compile of Load", p.Compiles)
	}
	if strings.Contains(rr.Body.String(), `"cached"`) {
		t.Fatalf("/programs still reports a compiled-program pool: %s", rr.Body.String())
	}
}

// TestStreamOverlapsScans: the stream transport overlaps scan requests —
// two scans sent back to back both complete, and close drains them before
// responding.
func TestStreamConcurrentScans(t *testing.T) {
	s := newServer(t, programDir(t), serve.Options{})
	ss := startSession(t, context.Background(), s)
	if got := ss.recvResponse(); got.Op != serve.OpReady {
		t.Fatalf("first frame = %+v, want ready", got)
	}
	ss.send(`{"id":"a","op":"scan","program":"chairs","content":"inventory\nChair: A (price: $1.00)\n"}`)
	ss.send(`{"id":"b","op":"scan","program":"chairs","content":"inventory\nChair: B (price: $2.00)\n"}`)
	ss.send(`{"id":"z","op":"close"}`)
	got := map[string]bool{}
	var last serve.Response
	for i := 0; i < 3; i++ {
		last = ss.recvResponse()
		if !last.OK {
			t.Fatalf("frame failed: %+v", last)
		}
		got[last.ID] = true
	}
	if !got["a"] || !got["b"] || !got["z"] {
		t.Fatalf("missing responses: %v", got)
	}
	if last.Op != serve.OpClose {
		t.Fatalf("close was not the last frame: %+v", last)
	}
	if err := ss.close(); err != nil {
		t.Fatalf("serve returned %v", err)
	}
}

// gatedWriter holds every Write until release is closed, like a client
// that sends all its requests before it reads any response.
type gatedWriter struct {
	release chan struct{}
	mu      sync.Mutex
	buf     bytes.Buffer
}

func (w *gatedWriter) Write(p []byte) (int, error) {
	<-w.release
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

// signalWriter signals one handled frame per access-log line.
type signalWriter chan struct{}

func (w signalWriter) Write(p []byte) (int, error) {
	w <- struct{}{}
	return len(p), nil
}

// TestStreamIntakeIgnoresBlockedWrites: while every response write blocks,
// the stream still reads and handles scan, list_programs, scan and close;
// once the writes go through, exactly their four frames follow the ready
// frame, close last.
func TestStreamIntakeIgnoresBlockedWrites(t *testing.T) {
	handled := make(signalWriter, 4)
	s := newServer(t, programDir(t), serve.Options{AccessLog: handled})
	out := &gatedWriter{release: make(chan struct{})}
	var release sync.Once
	defer release.Do(func() { close(out.release) })
	inR, inW := io.Pipe()
	defer inW.Close()
	done := make(chan error, 1)
	go func() {
		err := s.Serve(context.Background(), inR, out)
		inR.Close()
		done <- err
	}()
	go func() {
		for _, line := range []string{
			`{"id":"a","op":"scan","program":"chairs","content":"inventory\nChair: A (price: $1.00)\n"}`,
			`{"id":"l","op":"list_programs"}`,
			`{"id":"b","op":"scan","program":"chairs","content":"inventory\nChair: B (price: $2.00)\n"}`,
			`{"id":"z","op":"close"}`,
		} {
			if _, err := io.WriteString(inW, line+"\n"); err != nil {
				return
			}
		}
	}()
	// A frame is logged before its response is queued, so four log lines
	// mean all four requests were read with no byte written yet.
	timeout := time.After(10 * time.Second)
	for i := 0; i < 4; i++ {
		select {
		case <-handled:
		case <-timeout:
			t.Fatalf("%d of 4 requests handled while the response writer was blocked", i)
		}
	}
	release.Do(func() { close(out.release) })
	if err := <-done; err != nil {
		t.Fatalf("serve returned %v", err)
	}
	lines := strings.Split(strings.TrimSuffix(out.buf.String(), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("%d frames, want ready + 4:\n%s", len(lines), out.buf.String())
	}
	got := map[string]bool{}
	var last serve.Response
	for i, line := range lines {
		last = serve.Response{}
		if err := json.Unmarshal([]byte(line), &last); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if i == 0 {
			if last.Op != serve.OpReady {
				t.Fatalf("first frame = %+v, want ready", last)
			}
			continue
		}
		if !last.OK {
			t.Fatalf("frame failed: %+v", last)
		}
		got[last.ID] = true
	}
	if len(got) != 4 || last.Op != serve.OpClose {
		t.Fatalf("responses %v, last %+v: want a, l, b and close last", got, last)
	}
}

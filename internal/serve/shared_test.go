package serve_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"testing"

	"flashextract/internal/bench"
	"flashextract/internal/bench/corpus"
	"flashextract/internal/serve"
)

// TestSharedProgramConcurrentStreams: each catalog entry's one compiled
// program serves every request. A text, a web and a sheet artifact are
// scanned over every corpus document of their domain by several concurrent
// streams; every response frame must be byte-identical to the sequential
// answer, and no scan may compile, so each entry's Compiles stays at the
// one compile of Load. Under -race this is the check that concurrent
// documents may share a SchemaProgram.
func TestSharedProgramConcurrentStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus scans are not short")
	}
	dir := t.TempDir()
	var lines []string
	docs := map[string]int64{} // scan requests per domain
	for _, task := range corpus.All() {
		if docs[task.Domain] == 0 {
			artifact, err := bench.LearnSchemaProgram(task, 3)
			if err != nil {
				t.Fatalf("learning on %s: %v", task.Name, err)
			}
			writeProgram(t, dir, fmt.Sprintf("%s@1.%s.json", task.Domain, task.Domain), artifact)
		}
		docs[task.Domain]++
		lines = append(lines, mustJSON(t, serve.Request{ID: task.Name, Op: serve.OpScan,
			Program: task.Domain, DocName: task.Name, Content: task.Source}))
	}
	s := newServer(t, dir, serve.Options{MaxInflight: 1024})
	if n := s.Registry().Len(); n != 3 {
		t.Fatalf("catalog holds %d entries, want 3", n)
	}

	want := map[string]string{}
	for _, line := range lines {
		resp := s.HandleLine(context.Background(), []byte(line))
		frame, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		want[resp.ID] = string(frame)
	}

	const streams = 4
	got := make([]map[string]string, streams)
	errs := make([]error, streams)
	var wg sync.WaitGroup
	for c := range got {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			got[c], errs[c] = scanStream(s, lines)
		}(c)
	}
	wg.Wait()
	for c := range got {
		if errs[c] != nil {
			t.Fatalf("stream %d: %v", c, errs[c])
		}
		if len(got[c]) != len(want) {
			t.Fatalf("stream %d answered %d requests, want %d", c, len(got[c]), len(want))
		}
		for id, frame := range want {
			if got[c][id] != frame {
				t.Errorf("stream %d, request %s:\n got %s\nwant %s", c, id, got[c][id], frame)
			}
		}
	}
	for _, e := range s.Registry().List() {
		if n := e.Compiles(); n != 1 {
			t.Errorf("%s compiled %d times, want once", e.Ref(), n)
		}
		if n, w := e.Scans(), (streams+1)*docs[e.DocType]; n != w {
			t.Errorf("%s ran %d scans, want %d", e.Ref(), n, w)
		}
	}
}

// scanStream sends every line on one Serve stream from its own goroutine
// while it reads the responses, and returns the response frames by id.
func scanStream(s *serve.Server, lines []string) (map[string]string, error) {
	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	served := make(chan error, 1)
	go func() {
		err := s.Serve(context.Background(), inR, outW)
		outW.Close()
		inR.Close()
		served <- err
	}()
	go func() {
		for _, line := range lines {
			if _, err := io.WriteString(inW, line+"\n"); err != nil {
				return
			}
		}
		inW.Close()
	}()
	frames := map[string]string{}
	sc := bufio.NewScanner(outR)
	sc.Buffer(make([]byte, 64*1024), serve.MaxFrameBytes)
	for sc.Scan() {
		var resp serve.Response
		if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
			return nil, fmt.Errorf("bad frame %q: %w", sc.Text(), err)
		}
		if resp.Op != serve.OpReady {
			frames[resp.ID] = sc.Text()
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return frames, <-served
}

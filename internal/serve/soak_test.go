package serve_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"flashextract/internal/batch"
	"flashextract/internal/metrics"
	"flashextract/internal/serve"
)

// TestSoakSequentialScans drives 1,000 scan requests through one stream
// against one server and asserts the process stays flat: goroutine count
// unchanged, heap growth bounded, the program compiled once at load (never
// per scan), and the monitor's conservation counters intact at the end.
func TestSoakSequentialScans(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const scans = 1000
	dir := programDir(t)
	mon := &batch.Monitor{}
	reg := metrics.NewRegistry()
	s := newServer(t, dir, serve.Options{Monitor: mon, Metrics: reg})
	entry, err := s.Registry().Resolve("chairs")
	if err != nil {
		t.Fatal(err)
	}

	ss := startSession(t, context.Background(), s)
	if got := ss.recvResponse(); got.Op != serve.OpReady {
		t.Fatalf("first frame = %+v", got)
	}
	// Warm up, then baseline: the first requests may grow caches and
	// runtime service goroutines that are steady-state afterwards.
	for i := 0; i < 20; i++ {
		if resp := ss.roundTrip(soakScan(i)); !resp.OK {
			t.Fatalf("warmup scan %d: %+v", i, resp)
		}
	}
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	goroutines := runtime.NumGoroutine()

	for i := 0; i < scans; i++ {
		if resp := ss.roundTrip(soakScan(i)); !resp.OK {
			t.Fatalf("scan %d: %+v", i, resp)
		}
	}

	if got := runtime.NumGoroutine(); got > goroutines+3 {
		t.Errorf("goroutines grew across the soak: %d -> %d", goroutines, got)
	}
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > 16<<20 {
		t.Errorf("heap grew %d bytes across %d scans", grown, scans)
	}
	// Every scan ran the program Load compiled.
	if c := entry.Compiles(); c != 1 {
		t.Errorf("Compiles = %d after %d scans, want the one compile of Load", c, scans)
	}
	if got := s.InflightDocs(); got != 0 {
		t.Errorf("in-flight docs after drain: %d", got)
	}
	if err := mon.ConservationError(); err != nil {
		t.Errorf("monitor conservation after soak: %v", err)
	}
	h := mon.Health()
	if h.Runs != scans+20 || h.InFlight != 0 || h.Processed != scans+20 {
		t.Errorf("monitor history: %+v", h)
	}
	if got := reg.Counter(metrics.ServeRequests); got != scans+20 {
		t.Errorf("ServeRequests = %d, want %d", got, scans+20)
	}
	if resp := ss.roundTrip(`{"id":"z","op":"close"}`); !resp.OK {
		t.Fatalf("close = %+v", resp)
	}
	if err := ss.close(); err != nil {
		t.Fatalf("serve returned %v", err)
	}
}

var soakNames = []string{"Aeron", "Tulip", "Bistro", "Windsor", "Morris", "Wegner", "Eames"}

func soakScan(i int) string {
	return fmt.Sprintf(`{"id":"s%d","op":"scan","program":"chairs","doc_name":"d%d.txt","content":"inventory\nChair: %s (price: $%d.25)\n"}`, i, i, soakNames[i%len(soakNames)], i%90+1)
}

package batch_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"flashextract/internal/batch"
	"flashextract/internal/bench"
	"flashextract/internal/bench/corpus"
	"flashextract/internal/faults"
	"flashextract/internal/provenance"
)

// TestProvenanceDifferential is the provenance guard: enabling execution
// capture must not perturb the main NDJSON stream by a single byte, over
// the full corpus of every domain — capture only observes operator
// outputs, it never changes them.
func TestProvenanceDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus differential is not short")
	}
	trainers := map[string]string{}
	domains := map[string][]batch.Source{}
	for _, task := range corpus.All() {
		if _, ok := trainers[task.Domain]; !ok {
			trainers[task.Domain] = task.Name
		}
		domains[task.Domain] = append(domains[task.Domain],
			batch.StringSource(task.Name, task.Source))
	}
	for domain, sources := range domains {
		domain, sources := domain, sources
		t.Run(domain, func(t *testing.T) {
			t.Parallel()
			prog, err := bench.LearnSchemaProgram(corpus.ByName(trainers[domain]), 3)
			if err != nil {
				t.Fatal(err)
			}
			run := func(provOut *bytes.Buffer) string {
				var out bytes.Buffer
				opts := batch.Options{
					Program: prog, DocType: domain, Workers: 4, Ordered: true,
				}
				if provOut != nil {
					opts.ProvenanceOut = provOut
				}
				if _, err := batch.Run(context.Background(), opts, sources, &out); err != nil {
					t.Fatal(err)
				}
				return out.String()
			}
			var sidecar bytes.Buffer
			off := run(nil)
			on := run(&sidecar)
			if off != on {
				t.Errorf("provenance-on output differs from provenance-off:\n--- off ---\n%s--- on ---\n%s", off, on)
			}
			// The sidecar aligns line-for-line with the main stream.
			main := strings.Split(strings.TrimSuffix(on, "\n"), "\n")
			frames := strings.Split(strings.TrimSuffix(sidecar.String(), "\n"), "\n")
			if len(frames) != len(main) {
				t.Fatalf("%d explain frames for %d records", len(frames), len(main))
			}
			for i, line := range frames {
				var f provenance.Frame
				if err := json.Unmarshal([]byte(line), &f); err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
				if f.SchemaName != provenance.Schema {
					t.Fatalf("frame %d schema = %q", i, f.SchemaName)
				}
				var rec batch.Record
				if err := json.Unmarshal([]byte(main[i]), &rec); err != nil {
					t.Fatal(err)
				}
				if f.Doc != rec.Doc || f.Index != rec.Index {
					t.Fatalf("frame %d (%s #%d) does not match record (%s #%d)",
						i, f.Doc, f.Index, rec.Doc, rec.Index)
				}
				if rec.OK && f.Unavailable != "" {
					t.Fatalf("frame %d unavailable (%q) for an ok record", i, f.Unavailable)
				}
				if !rec.OK && f.Unavailable == "" {
					t.Fatalf("frame %d has no unavailable reason for error record %s", i, rec.Doc)
				}
			}
		})
	}
}

// TestProvenanceDifferentialUnderChaos extends the guard to fault
// injection: with the transient chaos sites armed, provenance-on output
// must still match the fault-free, provenance-off baseline.
func TestProvenanceDifferentialUnderChaos(t *testing.T) {
	prog := learnTextProgram(t)
	sources := chaosSources(12)

	var clean bytes.Buffer
	if _, err := batch.Run(context.Background(), batch.Options{
		Program: prog, DocType: "text", Workers: 3, Ordered: true,
	}, sources, &clean); err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		var out, sidecar bytes.Buffer
		if _, err := batch.Run(context.Background(), batch.Options{
			Program: prog, DocType: "text", Workers: 3, Ordered: true,
			Chaos: faults.New(seed), SelfCheck: true, ProvenanceOut: &sidecar,
		}, sources, &out); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if out.String() != clean.String() {
			t.Errorf("seed %d: provenance+chaos output diverges from clean run", seed)
		}
		if n := len(strings.Split(strings.TrimSuffix(sidecar.String(), "\n"), "\n")); n != len(sources) {
			t.Errorf("seed %d: %d frames for %d documents", seed, n, len(sources))
		}
	}
}

// TestProvenanceShortcutFrames pins the sidecar on the paths that skip
// re-execution: duplicates replay an outcome, so their frames say so
// instead of fabricating provenance.
func TestProvenanceShortcutFrames(t *testing.T) {
	prog := learnTextProgram(t)
	sources := []batch.Source{
		batch.StringSource("a.txt", chairDoc("Aeron", "12.00")),
		batch.StringSource("b.txt", chairDoc("Aeron", "12.00")), // identical bytes
	}
	var out, sidecar bytes.Buffer
	sum, err := batch.Run(context.Background(), batch.Options{
		Program: prog, DocType: "text", Workers: 1, Ordered: true,
		Dedup: true, ProvenanceOut: &sidecar,
	}, sources, &out)
	if err != nil {
		t.Fatal(err)
	}
	if sum.DedupHits != 1 {
		t.Fatalf("DedupHits = %d, want 1", sum.DedupHits)
	}
	frames := strings.Split(strings.TrimSuffix(sidecar.String(), "\n"), "\n")
	if len(frames) != 2 {
		t.Fatalf("%d frames, want 2", len(frames))
	}
	var first, second provenance.Frame
	if err := json.Unmarshal([]byte(frames[0]), &first); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(frames[1]), &second); err != nil {
		t.Fatal(err)
	}
	if first.Unavailable != "" || len(first.Leaves) == 0 {
		t.Fatalf("leader frame = %+v, want captured leaves", first)
	}
	if !strings.HasPrefix(second.Unavailable, "dedup:") {
		t.Fatalf("duplicate frame unavailable = %q, want dedup reason", second.Unavailable)
	}
}

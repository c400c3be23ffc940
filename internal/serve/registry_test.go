package serve_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flashextract/internal/batch"
	"flashextract/internal/serve"
)

func TestLoadFilenameConvention(t *testing.T) {
	artifact := learnChairProgram(t)
	bad := []string{
		"chairs.json",            // no version
		"chairs@0.text.json",     // version must be positive
		"chairs@-1.text.json",    // negative version
		"chairs@1.5.text.json",   // non-integer version
		"chairs@x.text.json",     // non-numeric version
		"@1.text.json",           // empty name
		"cha irs@1.text.json",    // bad name charset
		"chairs@1.json",          // missing doctype
		"chairs@1.parquet.json",  // unknown doctype
		"chairs@1.text.ndjson.x", // not .json at all (ignored, not error)
	}
	for _, name := range bad[:len(bad)-1] {
		dir := t.TempDir()
		writeProgram(t, dir, name, artifact)
		if _, _, err := serve.NewRegistry(dir, 0).Load(); err == nil {
			t.Errorf("Load accepted %q", name)
		}
	}
	// Non-.json files are simply not part of the catalog.
	dir := t.TempDir()
	writeProgram(t, dir, "chairs@1.text.json", artifact)
	writeProgram(t, dir, "README.md", []byte("notes"))
	r := serve.NewRegistry(dir, 0)
	if _, _, err := r.Load(); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
}

func TestLoadMissingDir(t *testing.T) {
	r := serve.NewRegistry(filepath.Join(t.TempDir(), "nope"), 0)
	if _, _, err := r.Load(); err == nil {
		t.Fatal("Load of a missing directory succeeded")
	}
}

func TestLoadDuplicateRef(t *testing.T) {
	dir := t.TempDir()
	writeProgram(t, dir, "chairs@1.text.json", learnChairProgram(t))
	writeProgram(t, dir, "chairs@1.sheet.json", learnChairProgram(t))
	if _, _, err := serve.NewRegistry(dir, 0).Load(); err == nil ||
		!strings.Contains(err.Error(), "duplicate program") {
		t.Fatalf("Load = %v, want duplicate program error", err)
	}
}

// TestLoadCorruptKeepsCatalog: a failed rescan must leave the previous
// catalog live — a bad deploy never takes down serving.
func TestLoadCorruptKeepsCatalog(t *testing.T) {
	dir := programDir(t)
	r := serve.NewRegistry(dir, 0)
	if _, _, err := r.Load(); err != nil {
		t.Fatal(err)
	}
	writeProgram(t, dir, "chairs@2.text.json", []byte("{corrupt"))
	if _, _, err := r.Load(); err == nil {
		t.Fatal("Load accepted a corrupt artifact")
	}
	e, err := r.Resolve("chairs")
	if err != nil || e.Version != 1 {
		t.Fatalf("Resolve after failed reload = %v, %v; want chairs@1", e, err)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want the previous catalog", r.Len())
	}
}

func TestResolve(t *testing.T) {
	dir := programDir(t)
	writeProgram(t, dir, "chairs@2.text.json", learnNamesProgram(t))
	r := serve.NewRegistry(dir, 0)
	if _, _, err := r.Load(); err != nil {
		t.Fatal(err)
	}
	if e, err := r.Resolve("chairs"); err != nil || e.Version != 2 {
		t.Fatalf(`Resolve("chairs") = v%d, %v; want the newest version 2`, e.Version, err)
	}
	if e, err := r.Resolve("chairs@1"); err != nil || e.Version != 1 {
		t.Fatalf(`Resolve("chairs@1") = %v, %v; want v1`, e, err)
	}
	if _, err := r.Resolve("tables"); !errors.Is(err, serve.ErrUnknownProgram) {
		t.Fatalf(`Resolve("tables") = %v, want ErrUnknownProgram`, err)
	}
	if _, err := r.Resolve("chairs@3"); !errors.Is(err, serve.ErrVersionMismatch) {
		t.Fatalf(`Resolve("chairs@3") = %v, want ErrVersionMismatch`, err)
	}
	if _, err := r.Resolve("chairs@x"); !errors.Is(err, serve.ErrVersionMismatch) {
		t.Fatalf(`Resolve("chairs@x") = %v, want ErrVersionMismatch`, err)
	}
	if _, err := r.Resolve(""); !errors.Is(err, serve.ErrUnknownProgram) {
		t.Fatalf(`Resolve("") = %v, want ErrUnknownProgram`, err)
	}
}

// TestReloadPreservesIdentity: an unchanged artifact keeps its entry — and
// with it the compiled program and serving counters — across reloads; a
// changed artifact gets a new entry compiled once; and scans compile
// nothing.
func TestReloadPreservesIdentity(t *testing.T) {
	dir := programDir(t)
	r := serve.NewRegistry(dir, 0)
	if _, _, err := r.Load(); err != nil {
		t.Fatal(err)
	}
	e1, err := r.Resolve("chairs")
	if err != nil {
		t.Fatal(err)
	}
	compiles := e1.Compiles()
	added, removed, err := r.Load()
	if err != nil {
		t.Fatal(err)
	}
	if added != 0 || removed != 0 {
		t.Fatalf("no-op reload reported added=%d removed=%d", added, removed)
	}
	e2, err := r.Resolve("chairs")
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Fatal("unchanged artifact did not keep its entry identity across reload")
	}
	if compiles != 1 || e2.Compiles() != 1 {
		t.Fatalf("compiles = %d before the reload, %d after; want 1 and 1", compiles, e2.Compiles())
	}

	// A changed digest: the same reference gets a new entry, compiled once.
	writeProgram(t, dir, "chairs@1.text.json", learnNamesProgram(t))
	if added, removed, err = r.Load(); err != nil {
		t.Fatal(err)
	}
	if added != 1 || removed != 1 {
		t.Fatalf("changed-digest reload reported added=%d removed=%d, want 1/1", added, removed)
	}
	e3, err := r.Resolve("chairs")
	if err != nil {
		t.Fatal(err)
	}
	if e3 == e1 || e3.Digest == e1.Digest {
		t.Fatal("a changed artifact kept the old entry")
	}
	if e3.Compiles() != 1 {
		t.Fatalf("new entry compiled %d times, want once", e3.Compiles())
	}

	// Scans run the entry's program and compile nothing, on the current
	// entry and on the one the reload dropped alike.
	for _, e := range []*serve.Entry{e1, e3} {
		for _, workers := range []int{1, 3} {
			var out strings.Builder
			if _, err := batch.Run(context.Background(), batch.Options{
				Programs: e, DocType: e.DocType, Workers: workers, Ordered: true,
			}, []batch.Source{
				batch.StringSource("a", chairDoc("Bistro", "75.40")),
				batch.StringSource("b", chairDoc("Windsor", "185.00")),
				batch.StringSource("c", chairDoc("Eames", "12.00")),
			}, &out); err != nil {
				t.Fatal(err)
			}
		}
		if e.Compiles() != 1 {
			t.Fatalf("%s (digest %.8s) compiled %d times after scans, want once", e.Ref(), e.Digest, e.Compiles())
		}
	}
}

// TestEntrySurvivesCatalogDrop: an entry resolved before a reload stays
// fully runnable after the reload drops it — the in-flight-on-old-version
// guarantee of hot reload.
func TestEntrySurvivesCatalogDrop(t *testing.T) {
	dir := programDir(t)
	r := serve.NewRegistry(dir, 0)
	if _, _, err := r.Load(); err != nil {
		t.Fatal(err)
	}
	old, err := r.Resolve("chairs")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "chairs@1.text.json")); err != nil {
		t.Fatal(err)
	}
	writeProgram(t, dir, "chairs@2.text.json", learnNamesProgram(t))
	added, removed, err := r.Load()
	if err != nil {
		t.Fatal(err)
	}
	if added != 1 || removed != 1 {
		t.Fatalf("reload reported added=%d removed=%d, want 1/1", added, removed)
	}
	if e, err := r.Resolve("chairs"); err != nil || e.Version != 2 {
		t.Fatalf("catalog resolves v%d, %v; want the new version 2", e.Version, err)
	}
	// The dropped entry still runs documents through the batch pool.
	var out strings.Builder
	sum, err := batch.Run(context.Background(), batch.Options{
		Programs: old, DocType: old.DocType, Workers: 1, Ordered: true,
	}, []batch.Source{batch.StringSource("d", chairDoc("Bistro", "75.40"))}, &out)
	if err != nil {
		t.Fatalf("running the dropped entry: %v", err)
	}
	if sum.Docs != 1 || sum.Errors != 0 {
		t.Fatalf("dropped entry run summary: %+v", sum)
	}
	if !strings.Contains(out.String(), `"Prices":[75.40]`) {
		t.Fatalf("dropped entry did not run the old program: %s", out.String())
	}
}

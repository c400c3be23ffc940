package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// learnChairProgram saves the chair-inventory program of
// TestSaveAndLoadProgramCLI and returns its artifact path.
func learnChairProgram(t *testing.T, dir string) string {
	t.Helper()
	in := writeFile(t, dir, "train.txt", "inventory\nChair: Aeron (price: $540.00)\nChair: Tulip (price: $99.99)\n")
	sch := writeFile(t, dir, "schema.fx", `Struct(Names: Seq([name] String), Prices: Seq([price] Float))`)
	exs := writeFile(t, dir, "examples.fx", `
+ name find:"Aeron":0
+ name find:"Tulip":0
+ price find:"540.00":0
+ price find:"99.99":0
`)
	prog := filepath.Join(dir, "prog.json")
	var out strings.Builder
	if err := run(config{docType: "text", in: in, schema: sch, examples: exs,
		format: "json", saveProg: prog}, &out); err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestBatchSubcommandEndToEnd(t *testing.T) {
	dir := t.TempDir()
	prog := learnChairProgram(t, dir)
	docs := filepath.Join(dir, "docs")
	if err := os.Mkdir(docs, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"Bistro", "Windsor", "Eames"} {
		writeFile(t, docs, fmt.Sprintf("doc%d.txt", i),
			fmt.Sprintf("inventory\nChair: %s (price: $%d.50)\n", name, 10+i))
	}
	outPath := filepath.Join(dir, "results.ndjson")
	err := runBatch([]string{
		"-load", prog, "-type", "text", "-out", outPath, "-workers", "2", "-ordered",
		filepath.Join(docs, "*.txt"),
	}, &strings.Builder{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines:\n%s", len(lines), data)
	}
	for i, want := range []string{"Bistro", "Windsor", "Eames"} {
		if !json.Valid([]byte(lines[i])) {
			t.Fatalf("line %d not valid JSON: %q", i, lines[i])
		}
		var rec struct {
			Doc  string          `json:"doc"`
			OK   bool            `json:"ok"`
			Data json.RawMessage `json:"data"`
		}
		if err := json.Unmarshal([]byte(lines[i]), &rec); err != nil {
			t.Fatal(err)
		}
		if !rec.OK || !strings.Contains(string(rec.Data), want) {
			t.Errorf("line %d = %s, want ok data containing %q", i, lines[i], want)
		}
	}
}

// TestBatchSubcommandMissingFileIsolated checks a nonexistent path among
// the inputs yields an error record, not a failed run.
func TestBatchSubcommandMissingFileIsolated(t *testing.T) {
	dir := t.TempDir()
	prog := learnChairProgram(t, dir)
	good := writeFile(t, dir, "good.txt", "inventory\nChair: Bistro (price: $75.40)\n")
	var out strings.Builder
	err := runBatch([]string{
		"-load", prog, "-type", "text", "-ordered",
		good, filepath.Join(dir, "no-such-file.txt"),
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines:\n%s", len(lines), out.String())
	}
	if !strings.Contains(lines[0], `"ok":true`) || !strings.Contains(lines[1], `"ok":false`) {
		t.Errorf("unexpected records:\n%s", out.String())
	}
}

func TestBatchSubcommandErrors(t *testing.T) {
	dir := t.TempDir()
	prog := learnChairProgram(t, dir)
	doc := writeFile(t, dir, "d.txt", "x")
	cases := []struct {
		name string
		args []string
	}{
		{"missing -load", []string{"-type", "text", doc}},
		{"no inputs", []string{"-load", prog, "-type", "text"}},
		{"bad type", []string{"-load", prog, "-type", "pdf", doc}},
		{"missing program file", []string{"-load", filepath.Join(dir, "nope.json"), doc}},
		{"bad flag", []string{"-definitely-not-a-flag"}},
	}
	for _, tc := range cases {
		if err := runBatch(tc.args, &strings.Builder{}); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

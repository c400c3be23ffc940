package bench_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"flashextract/internal/bench"
	"flashextract/internal/bench/corpus"
)

var update = flag.Bool("update", false, "rewrite testdata/program_digests.txt (make program-digests)")

// raceBuild is set by race_test.go in builds with the race detector.
var raceBuild bool

// raceDigestDomains are the domains whose digests a race build checks: the
// two whose programs run over the token cache. Sheets and hadoop-xl, three
// quarters of the plain run's time, are checked by the plain build only.
var raceDigestDomains = map[string]bool{"text": true, "web": true}

// digestExamples are the golden-instance counts per field each task's
// schema program is learned from; 0 stands for all of them.
var digestExamples = []int{1, 2, 3, 5, 0}

// programDigests learns the schema program of every task from each count
// of digestExamples and renders one line per program: the task, the
// count, what was hashed ("program", or "error" when a field failed to
// learn or commit) and the SHA-256 of the saved program or the error text.
func programDigests(tasks []*bench.Task) []byte {
	var b bytes.Buffer
	for _, task := range tasks {
		for _, k := range digestExamples {
			body, err := bench.LearnSchemaProgram(task, k)
			kind := "program"
			if err != nil {
				kind, body = "error", []byte(err.Error())
			}
			n := strconv.Itoa(k)
			if k == 0 {
				n = "all"
			}
			fmt.Fprintf(&b, "%s\t%s\t%s\t%x\n", task.Name, n, kind, sha256.Sum256(body))
		}
	}
	return b.Bytes()
}

// TestSavedProgramDigests pins what synthesis learns across commits: the
// saved schema programs of every corpus task and hadoop-xl, learned from
// 1, 2, 3, 5 and all golden instances per field, must hash to the digests
// in testdata/program_digests.txt. A change that alters a learned program
// fails here until the file is regenerated with `make program-digests`.
func TestSavedProgramDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("learns 380 schema programs")
	}
	path := filepath.Join("testdata", "program_digests.txt")
	tasks := corpus.AllWithLarge()
	if raceBuild && !*update {
		var subset []*bench.Task
		for _, task := range tasks {
			if raceDigestDomains[task.Domain] && task.Name != "hadoop-xl" {
				subset = append(subset, task)
			}
		}
		tasks = subset
	}
	got := programDigests(tasks)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading digests (regenerate with make program-digests): %v", err)
	}
	checked := map[string]bool{}
	for _, task := range tasks {
		checked[task.Name] = true
	}
	var wantLines []string
	for _, line := range strings.SplitAfter(string(want), "\n") {
		if name, _, _ := strings.Cut(line, "\t"); checked[name] {
			wantLines = append(wantLines, line)
		}
	}
	gotLines := strings.SplitAfter(string(got), "\n")
	gotLines = gotLines[:len(gotLines)-1] // the empty string after the last newline
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d digests, testdata has %d for these tasks", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("got %q, testdata has %q", gotLines[i], wantLines[i])
		}
	}
}

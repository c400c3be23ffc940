package bench_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"flashextract/internal/batch"
	"flashextract/internal/bench"
	"flashextract/internal/bench/corpus"
)

var update = flag.Bool("update", false, "rewrite the checked files under testdata instead of comparing with them")

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
	tasks := digestTasks(corpus.AllWithLarge())
	checkDigests(t, filepath.Join("testdata", "program_digests.txt"), tasks, programDigests(tasks))
}

// digestTasks returns tasks, or in a race build that checks rather than
// regenerates, only the tasks of raceDigestDomains other than hadoop-xl.
func digestTasks(tasks []*bench.Task) []*bench.Task {
	if !raceBuild || *update {
		return tasks
	}
	var subset []*bench.Task
	for _, task := range tasks {
		if raceDigestDomains[task.Domain] && task.Name != "hadoop-xl" {
			subset = append(subset, task)
		}
	}
	return subset
}

// recordDigests runs the schema program each task learns from all its
// golden instances over every corpus document of the task's domain, with
// batch.Run (ordered, one worker, with a provenance sidecar), and renders
// two lines per task: the SHA-256 of the NDJSON record stream and of the
// sidecar.
func recordDigests(t *testing.T, tasks []*bench.Task) []byte {
	sources := map[string][]batch.Source{}
	for _, task := range corpus.All() {
		sources[task.Domain] = append(sources[task.Domain], batch.StringSource(task.Name, task.Source))
	}
	var b bytes.Buffer
	for _, task := range tasks {
		prog, err := bench.LearnSchemaProgram(task, 0)
		if err != nil {
			t.Fatal(err)
		}
		var records, sidecar bytes.Buffer
		sum, err := batch.Run(context.Background(), batch.Options{
			Program: prog, DocType: task.Domain, Workers: 1, Ordered: true, ProvenanceOut: &sidecar,
		}, sources[task.Domain], &records)
		if err != nil {
			t.Fatal(err)
		}
		if sum.Docs != len(sources[task.Domain]) {
			t.Fatalf("%s: ran %d of %d documents", task.Name, sum.Docs, len(sources[task.Domain]))
		}
		fmt.Fprintf(&b, "%s\trecords\t%x\n", task.Name, sha256.Sum256(records.Bytes()))
		fmt.Fprintf(&b, "%s\tprovenance\t%x\n", task.Name, sha256.Sum256(sidecar.Bytes()))
	}
	return b.Bytes()
}

// TestBatchRecordDigests pins what learned programs extract across
// commits: for every corpus task, the batch records and provenance sidecar
// of its all-golden program over its domain's corpus must hash to the
// digests in testdata/record_digests.txt. A change that alters a record or
// a sidecar frame fails here until the file is regenerated with
// `make program-digests`.
func TestBatchRecordDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 75 programs over their domains' corpora")
	}
	tasks := digestTasks(corpus.All())
	checkDigests(t, filepath.Join("testdata", "record_digests.txt"), tasks, recordDigests(t, tasks))
}

// checkDigests compares the digest lines got, rendered for tasks, with the
// lines of the file at path that name those tasks, or rewrites the file
// under -update.
func checkDigests(t *testing.T, path string, tasks []*bench.Task, got []byte) {
	t.Helper()
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

package bench_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"flashextract/internal/bench"
	"flashextract/internal/bench/corpus"
	"flashextract/internal/core"
	"flashextract/internal/prefilter"
)

// TestReplayDigests pins the final programs of the ⊥-relative §6 replay
// (bench.Run, the code behind Figs. 10 and 11), which end in Lweb's
// position programs where the top-down sessions of
// TestSavedProgramDigests learn relative to a node. For every field of
// every corpus task, the SHA-256 of the saved final program must match
// testdata/replay_program_digests.txt and the SHA-256 of its rendered
// prefilter.CondOf must match testdata/replay_cond_digests.txt; a field
// that does not converge hashes its failure reason instead. Regenerate
// both with `make program-digests`.
func TestReplayDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("replays every field of the 75 corpus tasks")
	}
	tasks := digestTasks(corpus.All())
	var progs, conds bytes.Buffer
	for _, task := range tasks {
		for _, fr := range bench.Run(task).Fields {
			if !fr.Succeeded {
				line := fmt.Sprintf("%s\t%s\tfailed\t%x\n", task.Name, fr.Color, sha256.Sum256([]byte(fr.FailReason)))
				progs.WriteString(line)
				conds.WriteString(line)
				continue
			}
			body, err := core.MarshalProgram(fr.Program)
			if err != nil {
				t.Fatalf("%s %s: %v", task.Name, fr.Color, err)
			}
			fmt.Fprintf(&progs, "%s\t%s\tprogram\t%x\n", task.Name, fr.Color, sha256.Sum256(body))
			cond := renderCond(prefilter.CondOf(fr.Program))
			fmt.Fprintf(&conds, "%s\t%s\tcond\t%x\n", task.Name, fr.Color, sha256.Sum256([]byte(cond)))
		}
	}
	checkDigests(t, filepath.Join("testdata", "replay_program_digests.txt"), tasks, progs.Bytes())
	checkDigests(t, filepath.Join("testdata", "replay_cond_digests.txt"), tasks, conds.Bytes())
}

// renderCond renders an admission condition in full: each conjunction's
// minimum length and every atom's kind, literal and byte mask.
func renderCond(c prefilter.Cond) string {
	switch {
	case c.IsTrue():
		return "true"
	case c.IsFalse():
		return "false"
	}
	var b strings.Builder
	for i, cj := range c.Disj {
		if i > 0 {
			b.WriteString(" | ")
		}
		fmt.Fprintf(&b, "(len>=%d", cj.MinLen)
		for _, a := range cj.Atoms {
			fmt.Fprintf(&b, " & %d:%q:%x", a.Kind, a.Lit, a.Mask)
		}
		b.WriteString(")")
	}
	return b.String()
}

// TestWebExploredCounts pins the candidates a cold synthesis explores on
// every web corpus task (bench.MeasureExplored), as
// TestCommittedExploredCounts does for the text tasks through
// BENCH_synth.json, against testdata/web_explored_counts.txt. Regenerate
// it with `make program-digests`.
func TestWebExploredCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes every field of the 25 web tasks")
	}
	tasks := corpus.Web()
	var b bytes.Buffer
	for _, task := range tasks {
		n, err := bench.MeasureExplored(task)
		if err != nil {
			t.Fatalf("%s: %v", task.Name, err)
		}
		fmt.Fprintf(&b, "%s\texplored\t%d\n", task.Name, n)
	}
	checkDigests(t, filepath.Join("testdata", "web_explored_counts.txt"), tasks, b.Bytes())
}

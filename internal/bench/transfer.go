package bench

import (
	"fmt"

	"flashextract/internal/engine"
	"flashextract/internal/region"
)

// TransferResult records whether a program learned on one document
// extracts the golden annotation of a second, similarly formatted document
// without any new examples — the §2 workflow of running a learned program
// "on other similar files".
type TransferResult struct {
	Task  string
	Color string
	// Learned reports whether the training simulation converged.
	Learned bool
	// Transferred reports whether the learned program reproduced the test
	// document's golden annotation exactly.
	Transferred bool
	// Detail describes the first divergence, if any.
	Detail string
}

// RunTransfer learns every field of train via the ⊥-relative simulation
// and replays the final programs on test.
func RunTransfer(train, test *Task) []TransferResult {
	var out []TransferResult
	for _, fi := range train.Schema.Fields() {
		tr := TransferResult{Task: train.Name, Color: fi.Color()}
		fr := SimulateField(train.Doc, train.Golden[fi.Color()])
		if !fr.Succeeded || fr.Program == nil {
			tr.Detail = "training failed: " + fr.FailReason
			out = append(out, tr)
			continue
		}
		tr.Learned = true
		got, err := engine.ExtractSeq(fr.Program, test.Doc.WholeRegion())
		if err != nil {
			tr.Detail = fmt.Sprintf("execution on test document failed: %v", err)
			out = append(out, tr)
			continue
		}
		want := append([]region.Region(nil), test.Golden[fi.Color()]...)
		region.Sort(want)
		missing, spurious, _ := firstMismatch(want, got)
		switch {
		case missing == nil && spurious == nil:
			tr.Transferred = true
		case missing != nil:
			tr.Detail = fmt.Sprintf("missing %s (%q)", missing, clip(missing.Value()))
		default:
			tr.Detail = fmt.Sprintf("spurious %s (%q)", spurious, clip(spurious.Value()))
		}
		out = append(out, tr)
	}
	return out
}

func clip(s string) string {
	if len(s) > 40 {
		return s[:40] + "…"
	}
	return s
}

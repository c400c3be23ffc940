package engine

import (
	"context"
	"strings"
	"testing"
	"time"

	"flashextract/internal/core"
	"flashextract/internal/logx"
	"flashextract/internal/metrics"
	"flashextract/internal/region"
	"flashextract/internal/schema"
)

// countingLang wraps the fake language and counts learner invocations, so
// tests can assert that an incremental hit did not re-run the learner.
type countingLang struct {
	inner    *fakeLang
	seqCalls int
	regCalls int
}

func (l *countingLang) SynthesizeSeqRegion(ctx context.Context, exs []SeqRegionExample) []core.Program {
	l.seqCalls++
	return l.inner.SynthesizeSeqRegion(ctx, exs)
}

func (l *countingLang) SynthesizeRegion(ctx context.Context, exs []RegionExample) []core.Program {
	l.regCalls++
	return l.inner.SynthesizeRegion(ctx, exs)
}

// newCountingDomain wires the fake candidate pool behind a counting
// language.
func newCountingDomain(text string) (*fakeDoc, *countingLang) {
	doc, inner := newFakeDomain(text)
	cl := &countingLang{inner: inner}
	doc.lang = cl
	return doc, cl
}

func mustLearn(t *testing.T, s *Session, color string) (*FieldProgram, []region.Region) {
	t.Helper()
	fp, out, err := s.Learn(color)
	if err != nil {
		t.Fatalf("Learn(%s): %v", color, err)
	}
	return fp, out
}

func TestIncrementalHitSkipsLearner(t *testing.T) {
	doc, cl := newCountingDomain(fakeText)
	m := schema.MustParse(`Seq([row] String)`)
	s := NewSession(doc, m)
	lines := lineSpans(fakeText)

	if err := s.AddPositive("row", lines[0]); err != nil {
		t.Fatal(err)
	}
	_, coldOut := mustLearn(t, s, "row")
	if cl.seqCalls != 1 {
		t.Fatalf("cold learn ran the learner %d times, want 1", cl.seqCalls)
	}

	// lines[1] is in the winner's output, so the extended spec is
	// consistent with it: the call must be served from retained state.
	if err := s.AddPositive("row", lines[1]); err != nil {
		t.Fatal(err)
	}
	_, incOut := mustLearn(t, s, "row")
	if cl.seqCalls != 1 {
		t.Fatalf("incremental learn re-ran the learner (%d calls)", cl.seqCalls)
	}
	st := s.Stats()
	if st.IncrementalHits != 1 || st.IncrementalFallbacks != 0 {
		t.Fatalf("hits=%d fallbacks=%d, want 1/0", st.IncrementalHits, st.IncrementalFallbacks)
	}
	if st.Metrics.Counters[metrics.IncrementalHits] != 1 {
		t.Fatalf("registry hit counter = %d", st.Metrics.Counters[metrics.IncrementalHits])
	}
	// LearnCalls must count both invocations regardless of the path taken.
	if st.LearnCalls != 2 || st.Metrics.Counters[metrics.LearnCalls] != 2 {
		t.Fatalf("LearnCalls stats=%d registry=%d, want 2/2", st.LearnCalls, st.Metrics.Counters[metrics.LearnCalls])
	}

	// The highlighting must match a from-scratch session given the same
	// examples.
	doc2, _ := newCountingDomain(fakeText)
	ref := NewSession(doc2, m)
	ref.SetIncremental(false)
	ref.AddPositive("row", lines[0])
	ref.AddPositive("row", lines[1])
	_, refOut := mustLearn(t, ref, "row")
	if len(refOut) != len(incOut) {
		t.Fatalf("incremental %d regions, cold reference %d", len(incOut), len(refOut))
	}
	for i := range refOut {
		if refOut[i] != incOut[i] {
			t.Fatalf("region %d: incremental %v, cold %v", i, incOut[i], refOut[i])
		}
	}
	_ = coldOut
}

func TestIncrementalFallbackOnContradictingExample(t *testing.T) {
	doc, cl := newCountingDomain(fakeText)
	m := schema.MustParse(`Seq([row] String)`)
	s := NewSession(doc, m)
	lines := lineSpans(fakeText)

	s.AddPositive("row", lines[0])
	fp, _ := mustLearn(t, s, "row")
	if fp.P.String() != "AllLines" {
		t.Fatalf("first winner = %s, want AllLines", fp.P)
	}
	// Striking lines[1] contradicts AllLines: the current program fails
	// the re-check, and the session must fall back to a cold re-learn,
	// whose fresh ranking picks the next program.
	if err := s.AddNegative("row", lines[1]); err != nil {
		t.Fatal(err)
	}
	fp, out := mustLearn(t, s, "row")
	if cl.seqCalls != 2 {
		t.Fatalf("fallback should re-run the learner (calls=%d, want 2)", cl.seqCalls)
	}
	if fp.P.String() != "EvenLines" || len(out) != 2 {
		t.Fatalf("after negative: %s with %d regions", fp.P, len(out))
	}
	st := s.Stats()
	if st.IncrementalHits != 0 || st.IncrementalFallbacks != 1 {
		t.Fatalf("hits=%d fallbacks=%d, want 0/1", st.IncrementalHits, st.IncrementalFallbacks)
	}
	if st.Metrics.Counters[metrics.IncrementalFallbacks] != 1 {
		t.Fatalf("registry fallback counter = %d", st.Metrics.Counters[metrics.IncrementalFallbacks])
	}
}

func TestIncrementalInvalidatedByCommitOfOtherField(t *testing.T) {
	// A field's first commit bumps the session's commit epoch (the
	// committed highlighting + materialized set changed), so retained state
	// of every other field must stop being reused even if its own examples
	// only grew.
	doc, cl := newCountingDomain(fakeText)
	m := schema.MustParse(rowSchema)
	s := NewSession(doc, m)
	lines := lineSpans(fakeText)

	s.AddPositive("row", lines[0])
	s.AddPositive("row", lines[1])
	mustLearn(t, s, "row")
	if err := s.Commit("row"); err != nil {
		t.Fatal(err)
	}

	w0, _ := wordOfLine(lines[0])
	s.AddPositive("a", w0)
	fpA, _ := mustLearn(t, s, "a")
	if fpA.Ancestor == nil || fpA.Ancestor.Color() != "row" {
		t.Fatalf("field a learned relative to %v, want row", fpA.Ancestor)
	}
	regCallsAfterA := cl.regCalls

	n0, _ := numberOfLine(lines[0])
	s.AddPositive("b", n0)
	mustLearn(t, s, "b")
	if err := s.Commit("b"); err != nil {
		t.Fatal(err)
	}

	// a's spec grows consistently, but the commit of b changed the
	// committed highlighting: the retained state is stale and the call
	// must fall back cold.
	w1, _ := wordOfLine(lines[1])
	s.AddPositive("a", w1)
	fpA2, _ := mustLearn(t, s, "a")
	if cl.regCalls <= regCallsAfterA {
		t.Fatal("stale retained state was reused after a commit changed the environment")
	}
	if fpA2.Ancestor == nil || fpA2.Ancestor.Color() != "row" {
		t.Fatalf("re-learned ancestor = %v, want row", fpA2.Ancestor)
	}
	if s.Stats().IncrementalFallbacks == 0 {
		t.Fatal("no fallback recorded for the stale-key re-learn")
	}
}

func TestIncrementalHitRunsOnlyCurrentProgram(t *testing.T) {
	doc, cl := newCountingDomain(fakeText)
	lines := lineSpans(fakeText)
	n0, _ := numberOfLine(lines[0])
	w1, _ := wordOfLine(lines[1])
	n1, _ := numberOfLine(lines[1])
	n2, _ := numberOfLine(lines[2])
	// The rank-0 candidate is consistent with every positive of b below,
	// but "beta" fails the Int check, so AllNumbers wins at rank 1.
	runs := 0
	cl.inner.seqCandidates = append([]seqProg{{"NumbersAndBeta", func(span) []span {
		runs++
		return []span{n0, w1, n1, n2}
	}}}, cl.inner.seqCandidates...)
	s := NewSession(doc, schema.MustParse(rowSchema))

	s.AddPositive("b", n0)
	fp, _ := mustLearn(t, s, "b")
	if fp.P.String() != "AllNumbers" {
		t.Fatalf("cold winner = %s, want AllNumbers", fp.P)
	}

	// n1 confirms AllNumbers: the hit re-checks that one program and never
	// runs the candidate the cold call already rejected.
	runs = 0
	s.AddPositive("b", n1)
	fp2, _ := mustLearn(t, s, "b")
	if fp2 != fp {
		t.Fatalf("hit returned %s, want the current program %s", fp2.P, fp.P)
	}
	if cl.seqCalls != 1 {
		t.Fatalf("learner ran %d times, want 1", cl.seqCalls)
	}
	if st := s.Stats(); st.IncrementalHits != 1 || st.IncrementalFallbacks != 0 {
		t.Fatalf("hits=%d fallbacks=%d, want 1/0", st.IncrementalHits, st.IncrementalFallbacks)
	}
	if runs != 0 {
		t.Fatalf("the rejected rank-0 candidate executed %d times on the hit, want 0", runs)
	}
	if got := s.LastPartial("b").CandidatesExplored; got != 1 {
		t.Fatalf("hit explored %d candidates, want 1", got)
	}
}

func TestIncrementalFallbackOnExampleSplit(t *testing.T) {
	// A second positive inside the same row region cannot be split against
	// the row ancestor of a's current program: the call must fall back and
	// fail exactly as a from-scratch session does.
	m := schema.MustParse(rowSchema)
	lines := lineSpans(fakeText)
	w0, _ := wordOfLine(lines[0])
	n0, _ := numberOfLine(lines[0])
	// prepare commits row, learns a from w0 and adds n0 to a's examples.
	prepare := func(s *Session) {
		s.AddPositive("row", lines[0])
		s.AddPositive("row", lines[1])
		mustLearn(t, s, "row")
		if err := s.Commit("row"); err != nil {
			t.Fatal(err)
		}
		s.AddPositive("a", w0)
		mustLearn(t, s, "a")
		s.AddPositive("a", n0)
	}

	doc, cl := newCountingDomain(fakeText)
	s := NewSession(doc, m)
	prepare(s)
	calls := cl.seqCalls + cl.regCalls
	var logs strings.Builder
	logger, err := logx.New(&logs, "debug", false)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, incErr := s.LearnContext(logx.Into(context.Background(), logger), "a")
	if st := s.Stats(); st.IncrementalHits != 0 || st.IncrementalFallbacks != 1 {
		t.Fatalf("hits=%d fallbacks=%d, want 0/1", st.IncrementalHits, st.IncrementalFallbacks)
	}
	if !strings.Contains(logs.String(), "example_split") {
		t.Fatalf("fallback reason not logged as example_split:\n%s", logs.String())
	}
	if cl.seqCalls+cl.regCalls <= calls {
		t.Fatal("the fallback did not re-run the learner")
	}

	doc2, _ := newCountingDomain(fakeText)
	ref := NewSession(doc2, m)
	ref.SetIncremental(false)
	prepare(ref)
	_, _, refErr := ref.Learn("a")
	if incErr == nil || refErr == nil || incErr.Error() != refErr.Error() {
		t.Fatalf("incremental err = %v, from-scratch err = %v", incErr, refErr)
	}
	if !strings.Contains(incErr.Error(), "no consistent sequence program relative to ⊥") {
		t.Fatalf("err = %v", incErr)
	}
}

func TestRecommitKeepsRetainedState(t *testing.T) {
	// Re-committing a materialized field reruns its program over the same
	// ancestor regions, so the environment is unchanged and retained state
	// of other fields must stay reusable.
	doc, cl := newCountingDomain(fakeText)
	m := schema.MustParse(rowSchema)
	s := NewSession(doc, m)
	lines := lineSpans(fakeText)

	s.AddPositive("row", lines[0])
	s.AddPositive("row", lines[1])
	mustLearn(t, s, "row")
	if err := s.Commit("row"); err != nil {
		t.Fatal(err)
	}
	w0, _ := wordOfLine(lines[0])
	s.AddPositive("a", w0)
	mustLearn(t, s, "a")
	regCalls := cl.regCalls
	if err := s.Commit("row"); err != nil {
		t.Fatal(err)
	}

	w1, _ := wordOfLine(lines[1])
	s.AddPositive("a", w1)
	mustLearn(t, s, "a")
	if cl.regCalls != regCalls {
		t.Fatalf("re-commit of row invalidated a's retained state (learner calls %d, want %d)", cl.regCalls, regCalls)
	}
	if st := s.Stats(); st.IncrementalHits != 1 || st.IncrementalFallbacks != 0 {
		t.Fatalf("hits=%d fallbacks=%d, want 1/0", st.IncrementalHits, st.IncrementalFallbacks)
	}
}

func TestClearExamplesInvalidatesDerivedState(t *testing.T) {
	doc, cl := newCountingDomain(fakeText)
	m := schema.MustParse(`Seq([row] String)`)
	s := NewSession(doc, m)
	lines := lineSpans(fakeText)

	s.AddPositive("row", lines[0])
	mustLearn(t, s, "row")
	if s.LastPartial("row") == nil {
		t.Fatal("Learn left no PartialResult")
	}
	if err := s.ClearExamples("row"); err != nil {
		t.Fatal(err)
	}
	// The learned program must not survive the clear: committing it would
	// materialize a highlighting the (now empty) examples never supported.
	if err := s.Commit("row"); err == nil {
		t.Fatal("Commit after ClearExamples materialized a stale program")
	}
	if s.LastPartial("row") != nil {
		t.Fatal("ClearExamples left a stale PartialResult")
	}
	if _, _, err := s.Learn("row"); err == nil {
		t.Fatal("Learn with no examples should fail")
	}

	// Retained incremental state must be gone too: a fresh example set
	// must go cold even if it extends the pre-clear spec.
	calls := cl.seqCalls
	s.AddPositive("row", lines[0])
	s.AddPositive("row", lines[1])
	mustLearn(t, s, "row")
	if cl.seqCalls <= calls {
		t.Fatal("post-clear learn did not run the learner")
	}
	if s.Stats().IncrementalHits != 0 {
		t.Fatal("post-clear learn reused cleared state")
	}

	if err := s.ClearExamples("nosuch"); err == nil {
		t.Fatal("unknown color accepted")
	}
	if err := s.Commit("row"); err != nil {
		t.Fatal(err)
	}
	if err := s.ClearExamples("row"); err == nil || !strings.Contains(err.Error(), "materialized") {
		t.Fatalf("ClearExamples on a materialized field: %v", err)
	}
}

func TestContradictoryExamplesRejected(t *testing.T) {
	doc, _ := newCountingDomain(fakeText)
	m := schema.MustParse(`Seq([row] String)`)
	s := NewSession(doc, m)
	lines := lineSpans(fakeText)

	if err := s.AddPositive("row", lines[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.AddNegative("row", lines[0]); err == nil || !strings.Contains(err.Error(), "positive") {
		t.Fatalf("negative over an existing positive: %v", err)
	}
	if err := s.AddNegative("row", lines[1]); err != nil {
		t.Fatal(err)
	}
	if err := s.AddPositive("row", lines[1]); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("positive over an existing negative: %v", err)
	}
	// Re-adding with the same polarity stays an accepted no-op.
	if err := s.AddPositive("row", lines[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.AddNegative("row", lines[1]); err != nil {
		t.Fatal(err)
	}
}

func TestMaterializedExampleMutationRejected(t *testing.T) {
	doc, _ := newCountingDomain(fakeText)
	m := schema.MustParse(`Seq([row] String)`)
	s := NewSession(doc, m)
	lines := lineSpans(fakeText)

	s.AddPositive("row", lines[0])
	s.AddPositive("row", lines[1])
	mustLearn(t, s, "row")
	if err := s.Commit("row"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddPositive("row", lines[2]); err == nil || !strings.Contains(err.Error(), "materialized") {
		t.Fatalf("AddPositive on a materialized field: %v", err)
	}
	if err := s.AddNegative("row", lines[2]); err == nil || !strings.Contains(err.Error(), "materialized") {
		t.Fatalf("AddNegative on a materialized field: %v", err)
	}
}

func TestLearnCallsCountsFailedLearns(t *testing.T) {
	doc, _ := newCountingDomain(fakeText)
	m := schema.MustParse(`Seq([row] String)`)
	s := NewSession(doc, m)
	lines := lineSpans(fakeText)

	// A learn that fails (no examples) is still a synthesis call.
	if _, _, err := s.Learn("row"); err == nil {
		t.Fatal("Learn without examples should fail")
	}
	if got := s.Stats().LearnCalls; got != 1 {
		t.Fatalf("failed learn not counted: LearnCalls=%d, want 1", got)
	}
	// Requests rejected before synthesis are not synthesis calls.
	if _, _, err := s.Learn("nosuch"); err == nil {
		t.Fatal("unknown color accepted")
	}
	if got := s.Stats().LearnCalls; got != 1 {
		t.Fatalf("unknown-color rejection counted: LearnCalls=%d, want 1", got)
	}
	s.AddPositive("row", lines[0])
	s.AddPositive("row", lines[1])
	mustLearn(t, s, "row")
	if err := s.Commit("row"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Learn("row"); err == nil {
		t.Fatal("Learn on a materialized field should fail")
	}
	if got := s.Stats().LearnCalls; got != 2 {
		t.Fatalf("materialized rejection counted: LearnCalls=%d, want 2", got)
	}
}

// TestStatsMatchRegistry drives one session through a failed call, a cold
// call, an incremental hit, a fallback and a budget-truncated call, and
// requires every Stats counter to equal the registry's and the sums of the
// calls' partial results.
func TestStatsMatchRegistry(t *testing.T) {
	doc, _ := newCountingDomain(fakeText)
	s := NewSession(doc, schema.MustParse(`Seq([row] String)`))
	lines := lineSpans(fakeText)

	var calls, explored, partials int64
	learn := func(wantErr bool) *PartialResult {
		t.Helper()
		_, _, pr, err := s.LearnContext(context.Background(), "row")
		if (err != nil) != wantErr {
			t.Fatalf("call %d: err = %v", calls+1, err)
		}
		calls++
		explored += pr.CandidatesExplored
		if pr.Exhausted {
			partials++
		}
		return pr
	}
	learn(true) // no examples: the call fails
	s.AddPositive("row", lines[0])
	learn(false) // cold: AllLines
	s.AddPositive("row", lines[2])
	learn(false) // AllLines still passes: a hit
	s.AddNegative("row", lines[1])
	learn(false) // AllLines fails the negative: a fallback to EvenLines
	s.SetBudget(core.SynthBudget{MaxCandidates: 1})
	if pr := learn(true); !pr.Exhausted {
		t.Fatal("the capped call was not truncated")
	}

	st := s.Stats()
	reg := st.Metrics.Counters
	for _, c := range []struct {
		name       string
		stats, reg int64
		want       int64
	}{
		{metrics.LearnCalls, st.LearnCalls, reg[metrics.LearnCalls], calls},
		{metrics.PartialResults, st.PartialResults, reg[metrics.PartialResults], partials},
		{metrics.CandidatesExplored, st.CandidatesExplored, reg[metrics.CandidatesExplored], explored},
		{metrics.IncrementalHits, st.IncrementalHits, reg[metrics.IncrementalHits], 1},
		{metrics.IncrementalFallbacks, st.IncrementalFallbacks, reg[metrics.IncrementalFallbacks], 2},
		{metrics.LearnerFanout, st.LearnerFanout, reg[metrics.LearnerFanout], reg[metrics.LearnerFanout]},
	} {
		if c.stats != c.reg || c.stats != c.want {
			t.Errorf("%s: Stats %d, registry %d, want %d", c.name, c.stats, c.reg, c.want)
		}
	}
}

func TestBudgetTrippedCallDoesNotSeedReuse(t *testing.T) {
	doc, cl := newCountingDomain(fakeText)
	m := schema.MustParse(`Seq([row] String)`)
	s := NewSession(doc, m)
	lines := lineSpans(fakeText)

	// A candidate cap below the pool size trips the budget mid-call; the
	// call degrades, and whatever it learned must not be retained.
	s.SetBudget(core.SynthBudget{MaxCandidates: 1})
	s.AddPositive("row", lines[0])
	if _, _, err := s.Learn("row"); err == nil {
		t.Fatal("capped learn should fail on this pool")
	}
	pr := s.LastPartial("row")
	if pr == nil || !pr.Exhausted {
		t.Fatalf("capped learn PartialResult = %+v", pr)
	}

	// With the cap lifted and the spec grown, the call must go cold: there
	// is no complete state to reuse.
	s.SetBudget(core.SynthBudget{})
	s.AddPositive("row", lines[1])
	calls := cl.seqCalls
	mustLearn(t, s, "row")
	if cl.seqCalls <= calls {
		t.Fatal("post-trip learn did not run the learner")
	}
	if s.Stats().IncrementalHits != 0 {
		t.Fatal("budget-truncated state was reused")
	}
}

func TestCandidateCapForcesColdPath(t *testing.T) {
	// Candidate-capped calls always take the cold path, so trip behavior is
	// identical whether or not the session previously retained state.
	doc, cl := newCountingDomain(fakeText)
	m := schema.MustParse(`Seq([row] String)`)
	s := NewSession(doc, m)
	lines := lineSpans(fakeText)

	s.AddPositive("row", lines[0])
	mustLearn(t, s, "row") // complete call: state retained
	s.SetBudget(core.SynthBudget{MaxCandidates: 100})
	s.AddPositive("row", lines[1])
	calls := cl.seqCalls
	mustLearn(t, s, "row")
	if cl.seqCalls <= calls {
		t.Fatal("capped call skipped the learner")
	}
	st := s.Stats()
	if st.IncrementalHits != 0 || st.IncrementalFallbacks != 1 {
		t.Fatalf("hits=%d fallbacks=%d, want 0/1", st.IncrementalHits, st.IncrementalFallbacks)
	}
}

func TestExpiredDeadlineSkipsIncremental(t *testing.T) {
	doc, _ := newCountingDomain(fakeText)
	m := schema.MustParse(`Seq([row] String)`)
	lines := lineSpans(fakeText)

	run := func(incremental bool) (error, SessionStats) {
		s := NewSession(doc, m)
		s.SetIncremental(incremental)
		s.AddPositive("row", lines[0])
		if _, _, _, err := s.LearnContext(context.Background(), "row"); err != nil {
			return err, s.Stats()
		}
		s.AddPositive("row", lines[1])
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		_, _, _, err := s.LearnContext(ctx, "row")
		return err, s.Stats()
	}
	errInc, stInc := run(true)
	errCold, _ := run(false)
	if (errInc == nil) != (errCold == nil) {
		t.Fatalf("expired-deadline divergence: incremental err=%v, cold err=%v", errInc, errCold)
	}
	if stInc.IncrementalHits != 0 {
		t.Fatal("incremental hit under an already-expired deadline")
	}
}

func TestSetIncrementalDropsState(t *testing.T) {
	doc, cl := newCountingDomain(fakeText)
	m := schema.MustParse(`Seq([row] String)`)
	s := NewSession(doc, m)
	lines := lineSpans(fakeText)

	if !s.Incremental() {
		t.Fatal("new sessions should be incremental")
	}
	s.AddPositive("row", lines[0])
	mustLearn(t, s, "row")
	s.SetIncremental(false)
	s.SetIncremental(true)
	s.AddPositive("row", lines[1])
	calls := cl.seqCalls
	mustLearn(t, s, "row")
	if cl.seqCalls <= calls {
		t.Fatal("state retained across SetIncremental(false) was reused")
	}
}

func TestInferStructureCountsAsLearnCall(t *testing.T) {
	doc, _ := newCountingDomain(fakeText)
	m := schema.MustParse(rowSchema)
	s := NewSession(doc, m)
	lines := lineSpans(fakeText)

	// Requests rejected before synthesis are not synthesis calls.
	if _, _, err := s.InferStructure("row"); err == nil {
		t.Fatal("inference without materialized children accepted")
	}
	if got := s.Stats().LearnCalls; got != 0 {
		t.Fatalf("pre-synthesis rejection counted: LearnCalls=%d, want 0", got)
	}

	// Bottom-up: materialize the leaves, then infer the row structure and
	// check the inference is recorded like any other synthesis call.
	w0, _ := wordOfLine(lines[0])
	w1, _ := wordOfLine(lines[1])
	n0, _ := numberOfLine(lines[0])
	s.AddPositive("a", w0)
	s.AddPositive("a", w1)
	mustLearn(t, s, "a")
	if err := s.Commit("a"); err != nil {
		t.Fatal(err)
	}
	s.AddPositive("b", n0)
	mustLearn(t, s, "b")
	if err := s.Commit("b"); err != nil {
		t.Fatal(err)
	}
	before := s.Stats().LearnCalls
	if _, _, err := s.InferStructure("row"); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().LearnCalls; got != before+1 {
		t.Fatalf("InferStructure not counted: LearnCalls=%d, want %d", got, before+1)
	}
	if s.LastPartial("row") == nil {
		t.Fatal("InferStructure left no PartialResult")
	}
}

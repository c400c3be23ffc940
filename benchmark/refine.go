package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"flashextract/internal/bench"
	"flashextract/internal/bench/corpus"
	"flashextract/internal/engine"
	"flashextract/internal/export"
	"flashextract/internal/region"
)

// refine replays the §6 interaction through engine.Session over the paper
// corpus. Per field, in schema order: the first golden instance, then one
// correction per Learn until the highlighting equals golden, then up to
// three confirming golden instances; the field is then committed, so later
// fields learn relative to their materialized ancestors. One operation is
// one Learn call. Each pass visits every task in a seeded order, with
// freshly generated documents.
type refine struct {
	seed  int64
	tasks []*bench.Task // the first pass's documents
	keep  func(i int) bool
	want  map[string]json.RawMessage
	pass  int
	// examples and fields count the first pass only, so examples per field
	// does not depend on how many passes a run completes.
	examples, fields int
}

const (
	// refineMaxSteps bounds the Learn calls before a field counts as not
	// converging; the corpus fields converge in a handful.
	refineMaxSteps = 24
	refineConfirms = 3
)

func setupRefine(cfg config) (workload, error) {
	r := &refine{seed: cfg.seed, keep: func(int) bool { return true }, want: map[string]json.RawMessage{}}
	if cfg.tiny {
		// Five tasks spread over the text, web and sheet thirds of the corpus.
		r.keep = func(i int) bool { return i%15 == 0 }
	}
	r.tasks = r.corpus()
	for _, t := range r.tasks {
		want, err := expectedRecord(t.Schema, t.Doc, t.Golden)
		if err != nil {
			return nil, fmt.Errorf("expected record of %s: %w", t.Name, err)
		}
		r.want[t.Name] = want
	}
	return r, nil
}

// corpus generates a fresh copy of the workload's tasks.
func (r *refine) corpus() []*bench.Task {
	var out []*bench.Task
	for i, t := range corpus.All() {
		if r.keep(i) {
			out = append(out, t)
		}
	}
	return out
}

// runPass replays pass p: the same p gives the same task order.
func (r *refine) runPass(ctx context.Context, p int, learn learnFunc, w *window, st *synthTrace) {
	tasks := r.tasks
	if p > 0 {
		tasks = r.corpus()
	}
	count := p == 0 && r.fields == 0
	for _, i := range rand.New(rand.NewSource(r.seed + int64(p))).Perm(len(tasks)) {
		sess, examples, fields := r.runTask(ctx, tasks[i], learn, w)
		if count {
			r.examples += examples
			r.fields += fields
		}
		if st != nil {
			st.session(sess.Stats())
		}
	}
}

// runTask interacts with one task until every field is committed, or the
// first failure: a field that does not converge, a confirming example
// that changes the highlighting, or an extracted record that differs from
// the oracle's.
func (r *refine) runTask(ctx context.Context, t *bench.Task, learn learnFunc, w *window) (sess *engine.Session, examples, fields int) {
	sess = engine.NewSession(t.Doc, t.Schema)
	timedLearn := func(color string) ([]region.Region, error) {
		start := time.Now()
		out, err := learn(ctx, sess, color)
		lat := time.Since(start)
		w.lat = append(w.lat, lat)
		w.busy += lat
		w.attempted++
		return out, err
	}
	for _, fi := range t.Schema.Fields() {
		c := fi.Color()
		golden := append([]region.Region(nil), t.Golden[c]...)
		region.Sort(golden)
		fields++
		var pos []region.Region
		next, negative := golden[0], false
		for step := 0; ; step++ {
			var err error
			if negative {
				err = sess.AddNegative(c, next)
			} else {
				err = sess.AddPositive(c, next)
				pos = append(pos, next)
			}
			examples++
			if err != nil || step == refineMaxSteps {
				w.failed++
				return
			}
			out, err := timedLearn(c)
			if err != nil {
				w.failed++
				return
			}
			if regionsEqual(out, golden) {
				break
			}
			next, negative = correction(golden, pos, out)
		}
		confirmed := 0
		for _, g := range golden {
			if confirmed == refineConfirms {
				break
			}
			if containsRegion(pos, g) {
				continue
			}
			confirmed++
			if err := sess.AddPositive(c, g); err != nil {
				w.failed++
				return
			}
			if out, err := timedLearn(c); err != nil || !regionsEqual(out, golden) {
				w.failed++
				return
			}
		}
		if err := sess.Commit(c); err != nil {
			w.failed++
			return
		}
	}
	w.attempted++
	inst, err := sess.Extract()
	if err != nil {
		w.failed++
		return
	}
	if got, err := export.JSONValue(inst); err != nil || !bytes.Equal(got, r.want[t.Name]) {
		w.failed++
	}
	return
}

// correction is the example a user adds after inspecting the highlighting
// out, walking it against golden in document order: the first golden
// instance out misses; or, at the first region out highlights wrongly, the
// golden instance it overlaps (the user redraws the extent) or else the
// wrong region itself as a negative example.
func correction(golden, pos, out []region.Region) (r region.Region, negative bool) {
	i, j := 0, 0
	for i < len(golden) && j < len(out) && golden[i] == out[j] {
		i++
		j++
	}
	if i < len(golden) && (j == len(out) || !out[j].Less(golden[i])) {
		return golden[i], false
	}
	spurious := out[j]
	for _, g := range golden {
		if g.Overlaps(spurious) && !containsRegion(pos, g) {
			return g, false
		}
	}
	return spurious, true
}

func regionsEqual(a, b []region.Region) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func containsRegion(rs []region.Region, r region.Region) bool {
	for _, x := range rs {
		if x == r {
			return true
		}
	}
	return false
}

// measure runs whole passes until d has elapsed.
func (r *refine) measure(ctx context.Context, d time.Duration) (window, error) {
	var w window
	for end := time.Now().Add(d); w.attempted == 0 || time.Now().Before(end); r.pass++ {
		r.runPass(ctx, r.pass, plainLearn, &w, nil)
	}
	return w, nil
}

// layers runs each pass twice in a row, untraced and then traced, until d
// has elapsed.
func (r *refine) layers(ctx context.Context, d time.Duration) (map[string]float64, window, error) {
	st := newSynthTrace()
	var ref, traced window
	var alloc allocDelta
	for end := time.Now().Add(d); ref.attempted == 0 || time.Now().Before(end); r.pass++ {
		alloc.start()
		r.runPass(ctx, r.pass, plainLearn, &ref, nil)
		alloc.stop()
		r.runPass(ctx, r.pass, st.learn, &traced, st)
	}
	m := map[string]float64{}
	st.metrics(m, len(traced.lat))
	alloc.metrics(m, len(ref.lat))
	traceOverhead(m, traced.busy, ref.busy)
	ref.add(traced)
	return m, ref, nil
}

func (r *refine) examplesPerField() float64 { return ratio(float64(r.examples), float64(r.fields)) }

func (r *refine) close() error { return nil }

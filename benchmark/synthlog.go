package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"flashextract/internal/engine"
	"flashextract/internal/export"
	"flashextract/internal/schema"
	"flashextract/internal/textlang"
)

// synthLog is cold synthesis of both fields of seeded DataNode logs, each
// log in a fresh document and session, each field from its first two
// golden instances. One operation is one log's synthesis.
type synthLog struct {
	schema *schema.Schema
	logs   []logDoc
	want   []json.RawMessage
	// next is the pool index of the next log; runs cycle through the pool.
	next             int
	examples, fields int
}

// Logs are small enough that a run of 20 s completes the 100 operations a
// p90 with ten samples beyond it needs, and the pool large enough that a
// run synthesizes each log about once, so its percentiles do not hinge on
// a few logs of one seed.
const (
	synthPool    = 160
	synthRecords = 80
)

func setupSynthLog(cfg config) (workload, error) {
	pool, records := synthPool, synthRecords
	if cfg.tiny {
		pool, records = 2, 60
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	s := &synthLog{schema: schema.MustParse(logSchema)}
	for i := 0; i < pool; i++ {
		lg := genLog(fmt.Sprintf("log-%02d", i), rng.Int63(), records)
		doc := textlang.NewDocument(lg.source)
		want, err := expectedRecord(s.schema, doc, lg.regions(doc))
		if err != nil {
			return nil, fmt.Errorf("expected record of %s: %w", lg.name, err)
		}
		s.logs = append(s.logs, lg)
		s.want = append(s.want, want)
	}
	return s, nil
}

// synthesize learns both fields of pool log i. It returns the time spent
// constructing the document and in Learn, the session, and whether the
// record the learned program extracts equals the oracle's.
func (s *synthLog) synthesize(ctx context.Context, i int, learn learnFunc) (time.Duration, *engine.Session, bool) {
	lg := s.logs[i%len(s.logs)]
	start := time.Now()
	doc := textlang.NewDocument(lg.source)
	busy := time.Since(start)
	golden := lg.regions(doc)
	sess := engine.NewSession(doc, s.schema)
	for _, c := range logColors {
		for _, r := range golden[c][:2] {
			if err := sess.AddPositive(c, r); err != nil {
				return busy, sess, false
			}
			s.examples++
		}
		s.fields++
		start := time.Now()
		_, err := learn(ctx, sess, c)
		busy += time.Since(start)
		if err != nil {
			return busy, sess, false
		}
	}
	for _, c := range logColors {
		if err := sess.Commit(c); err != nil {
			return busy, sess, false
		}
	}
	inst, err := sess.Extract()
	if err != nil {
		return busy, sess, false
	}
	got, err := export.JSONValue(inst)
	return busy, sess, err == nil && bytes.Equal(got, s.want[i%len(s.want)])
}

func (s *synthLog) measure(ctx context.Context, d time.Duration) (window, error) {
	var w window
	for end := time.Now().Add(d); w.attempted == 0 || time.Now().Before(end); s.next++ {
		busy, _, ok := s.synthesize(ctx, s.next, plainLearn)
		w.record(busy, ok)
	}
	return w, nil
}

// layers synthesizes each log twice in a row, untraced and then traced,
// until d has elapsed.
func (s *synthLog) layers(ctx context.Context, d time.Duration) (map[string]float64, window, error) {
	st := newSynthTrace()
	var ref, traced window
	var alloc allocDelta
	for end := time.Now().Add(d); ref.attempted == 0 || time.Now().Before(end); s.next++ {
		alloc.start()
		busy, _, ok := s.synthesize(ctx, s.next, plainLearn)
		alloc.stop()
		ref.record(busy, ok)
		busy, sess, ok := s.synthesize(ctx, s.next, st.learn)
		traced.record(busy, ok)
		st.session(sess.Stats())
	}
	m := map[string]float64{}
	st.metrics(m, len(traced.lat))
	alloc.metrics(m, len(ref.lat))
	traceOverhead(m, traced.busy, ref.busy)
	ref.add(traced)
	return m, ref, nil
}

func (s *synthLog) examplesPerField() float64 { return ratio(float64(s.examples), float64(s.fields)) }

func (s *synthLog) close() error { return nil }

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"flashextract/internal/docstore"
	"flashextract/internal/engine"
	"flashextract/internal/export"
	"flashextract/internal/metrics"
	"flashextract/internal/prefilter"
	"flashextract/internal/sheetlang"
	"flashextract/internal/textlang"
	"flashextract/internal/weblang"
)

// runPath times the layers of batch.Run's per-document pipeline from
// outside, by calling each layer's public function in the pipeline's
// order: content hash, prefilter admission, substrate parse, program run,
// render. Default batch options run only parse, run and render; the hash
// and the admission test are what Dedup and Prefilter add, so their times
// are the cost of turning those on.
type runPath struct {
	hash, admit, run, render time.Duration
	parse                    map[string]time.Duration
	parsed                   map[string]int64
	docs                     int64
}

func newRunPath() *runPath {
	return &runPath{parse: map[string]time.Duration{}, parsed: map[string]int64{}}
}

// doc replays one document and reports whether the record it renders
// equals want (as export.JSONValue renders it). Every replayed document
// holds records, so a prefilter that would skip one fails it.
func (rp *runPath) doc(ctx context.Context, prog *engine.SchemaProgram, filter *prefilter.Filter, docType string, data []byte, want json.RawMessage) bool {
	rp.docs++
	start := time.Now()
	docstore.Hash(data)
	rp.hash += time.Since(start)

	start = time.Now()
	admitted := filter.Admit(string(data))
	rp.admit += time.Since(start)
	if !admitted {
		return false
	}

	start = time.Now()
	doc, err := parseDoc(docType, string(data))
	rp.parse[docType] += time.Since(start)
	rp.parsed[docType]++
	if err != nil {
		return false
	}

	start = time.Now()
	inst, _, err := prog.RunContext(ctx, doc)
	rp.run += time.Since(start)
	if err != nil {
		return false
	}

	start = time.Now()
	got, err := export.JSONValue(inst)
	rp.render += time.Since(start)
	return err == nil && bytes.Equal(got, want)
}

// parseDoc is the substrate constructor batch.Run uses for docType.
func parseDoc(docType, src string) (engine.Document, error) {
	switch docType {
	case "text":
		return textlang.NewDocument(src), nil
	case "web":
		return weblang.NewDocument(src)
	case "sheet":
		return sheetlang.FromCSV(src)
	}
	return nil, fmt.Errorf("unknown document type %q", docType)
}

// pipeline is the mean per-document time of the layers the default batch
// options run: parse, run and render.
func (rp *runPath) pipeline() time.Duration {
	var parse time.Duration
	for _, d := range rp.parse {
		parse += d
	}
	if rp.docs == 0 {
		return 0
	}
	return (parse + rp.run + rp.render) / time.Duration(rp.docs)
}

func (rp *runPath) metrics(m map[string]float64) {
	n := float64(rp.docs)
	m["docstore.hash_us"] = ratio(us(rp.hash), n)
	m["prefilter.admit_us"] = ratio(us(rp.admit), n)
	for _, typ := range []string{"text", "web", "sheet"} {
		m["parse."+typ+"_us"] = ratio(us(rp.parse[typ]), float64(rp.parsed[typ]))
	}
	m["engine.run_us"] = ratio(us(rp.run), n)
	m["export.render_us"] = ratio(us(rp.render), n)
}

// docLatencies is the metrics sink handed to batch.Run: it keeps every
// per-document latency the runtime observes, so percentiles are exact
// rather than histogram estimates.
type docLatencies struct {
	mu      sync.Mutex
	samples []time.Duration
}

func (d *docLatencies) Count(string, int64) {}

func (d *docLatencies) Observe(name string, v float64) {
	if name != metrics.BatchDocSeconds {
		return
	}
	d.mu.Lock()
	d.samples = append(d.samples, time.Duration(v*float64(time.Second)))
	d.mu.Unlock()
}

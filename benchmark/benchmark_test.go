package main

import (
	"context"
	"testing"
	"time"
)

func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	b, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		kind    string
		json    []fileMetric
		program []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.json) != len(c.program) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", c.kind, len(c.json), len(c.program))
			continue
		}
		for i, m := range c.json {
			if d := c.program[i]; m.Name != d.name || m.Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s %s, program %s %s", c.kind, i, m.Name, m.Unit, d.name, d.unit)
			}
		}
	}
}

// TestWorkloadsSmoke runs every workload, untraced and traced, on tiny
// inputs: a 60-record log, 5 refine tasks, 10 batch documents and a few
// hundred scans.
func TestWorkloadsSmoke(t *testing.T) {
	for _, sp := range workloads {
		t.Run(sp.name, func(t *testing.T) {
			cfg := config{seed: 1, tiny: true, dir: t.TempDir()}
			for _, c := range []struct {
				traced bool
				defs   []metricDef
			}{{false, endToEnd}, {true, perLayer}} {
				res, err := run(context.Background(), sp, cfg, 300*time.Millisecond, c.traced)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("traced=%v: correct=%v attempted=%d failed=%d", c.traced, res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(c.defs) {
					t.Errorf("traced=%v: %d metrics, want %d", c.traced, len(res.Metrics), len(c.defs))
				}
				for _, d := range c.defs {
					if v, ok := res.Metrics[d.name]; !ok || v.Unit != d.unit {
						t.Errorf("traced=%v: metric %s = %+v, %v; want unit %s", c.traced, d.name, v, ok, d.unit)
					}
				}
				if dropped := res.Metrics["trace.dropped_spans"].Value; c.traced && dropped != 0 {
					t.Errorf("%v spans dropped", dropped)
				}
			}
		})
	}
}

func TestExamplesPerFieldDoesNotDependOnTheSeed(t *testing.T) {
	var got []float64
	for seed := int64(1); seed <= 2; seed++ {
		w, err := setupRefine(config{seed: seed, tiny: true})
		if err != nil {
			t.Fatal(err)
		}
		win, err := w.measure(context.Background(), 0)
		if err != nil || win.failed != 0 {
			t.Fatalf("seed %d: failed=%d err=%v", seed, win.failed, err)
		}
		got = append(got, w.examplesPerField())
	}
	if got[0] != got[1] || got[0] < 1 {
		t.Errorf("examples per field = %v, want one value of at least 1", got)
	}
}

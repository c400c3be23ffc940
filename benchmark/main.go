// Command benchmark measures FlashExtract end to end and layer by layer on
// four seeded workloads; README.md says why each exists and what each
// metric means.
//
//	benchmark -workload NAME -seed N -seconds S -trace 0|1
//
// runs one workload in this process and prints one line per metric
// ("workload metric value unit"), then the result as one JSON object on
// the last line. Without -workload it runs every workload, untraced and
// traced, each in a child process of its own. -out DIR also writes each
// result to DIR, and
//
//	benchmark -compare PARENT_DIR CHANGE_DIR
//
// compares two such directories metric by metric.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// nproc is the load the benchmark offers: GOMAXPROCS, batch workers and
// serve streams all equal the CPUs this process may run on.
var nproc = runtime.NumCPU()

// config sizes a workload.
type config struct {
	seed int64
	// tiny shrinks every input, for the smoke test.
	tiny bool
	// dir holds files a workload writes (the serve program registry).
	dir string
}

// workload is one set of inputs after set-up.
type workload interface {
	// measure runs the workload's operation untraced for at least d, and
	// at least once.
	measure(ctx context.Context, d time.Duration) (window, error)
	// layers runs an untraced reference and a traced pass over the same
	// operations, together about d, and returns the per-layer metrics the
	// workload exercises.
	layers(ctx context.Context, d time.Duration) (map[string]float64, window, error)
	// examplesPerField is the number of examples given per learned field.
	examplesPerField() float64
	close() error
}

// spec names a workload and sets it up.
type spec struct {
	name  string
	setup func(config) (workload, error)
}

// workloads are in BENCHMARK.json's order; README.md and BENCHMARK.json
// say why each exists.
var workloads = []spec{
	{"synth-log", setupSynthLog},
	{"refine", setupRefine},
	{"batch-logs", setupBatchLogs},
	{"serve-scan", setupServeScan},
}

// A run sets its workload up at least setupRuns times and for at least
// setupMin in all; setup_s is the median. A set-up of a few milliseconds
// is thus timed hundreds of times, and one of a few hundred five times.
const (
	setupRuns = 5
	setupMin  = time.Second
)

// stretches is how many consecutive stretches of equal length the measured
// run is split into; the timing metrics are medians over them. A reference
// slice follows every stretch, and setupSlices go before and after the
// set-ups.
const (
	stretches   = 10
	setupSlices = 3
)

func lookup(name string) (spec, error) {
	for _, sp := range workloads {
		if sp.name == name {
			return sp, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// run sets a workload up, warms it, and measures it for d: untraced for the
// end-to-end metrics, or traced for the per-layer metrics.
func run(ctx context.Context, sp spec, cfg config, d time.Duration, traced bool) (result, error) {
	ref := newHostReference()
	for i := 0; i < setupSlices; i++ {
		ref.slice()
	}
	var w workload
	var setups []float64
	for total := time.Duration(0); len(setups) < setupRuns || total < setupMin; {
		if w != nil {
			if err := w.close(); err != nil {
				return result{}, err
			}
		}
		start := time.Now()
		var err error
		if w, err = sp.setup(cfg); err != nil {
			return result{}, fmt.Errorf("%s: set-up: %w", sp.name, err)
		}
		took := time.Since(start)
		total += took
		setups = append(setups, took.Seconds())
	}
	defer w.close()
	// Set-up time is scaled like the timings below, by the reference rate
	// around the set-ups.
	for i := 0; i < setupSlices; i++ {
		ref.slice()
	}
	setupScale := ref.scale()
	// Let lazily built state and the heap settle before timing; outputs of
	// the warm-up are checked too.
	warm, err := w.measure(ctx, min(2*time.Second, d/10))
	if err != nil {
		return result{}, fmt.Errorf("%s: warm-up: %w", sp.name, err)
	}
	if traced {
		m, win, err := w.layers(ctx, d)
		if err != nil {
			return result{}, fmt.Errorf("%s: traced run: %w", sp.name, err)
		}
		return newResult(perLayer, m, warm.attempted+win.attempted, warm.failed+win.failed), nil
	}
	mem := watchMemory()
	wins := make([]window, stretches)
	start := time.Now()
	for i := range wins {
		// Each stretch ends at a fixed offset from the start, so a stretch
		// that overruns (a refine pass takes about half a second), or the
		// reference slice after it, shortens the next instead of
		// lengthening the run.
		due := start.Add(d * time.Duration(i+1) / stretches)
		if wins[i], err = w.measure(ctx, time.Until(due)); err != nil {
			break
		}
		ref.slice()
	}
	peak := mem.mb()
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", sp.name, err)
	}
	t := stretchTimings(wins).scaled(ref.scale())
	m := map[string]float64{
		"setup_s":            median(setups) * setupScale,
		"p50_ms":             t.p50,
		"p90_ms":             t.p90,
		"ops_per_s":          t.opsPerSecond,
		"examples_per_field": w.examplesPerField(),
		"peak_mem_mb":        peak,
	}
	attempted, failed := warm.attempted, warm.failed
	for _, win := range wins {
		attempted, failed = attempted+win.attempted, failed+win.failed
	}
	return newResult(endToEnd, m, attempted, failed), nil
}

// record is one result as -out writes it and -compare reads it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

func (r record) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, r.Trace)
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

// printMetrics writes one "workload metric value unit" line per metric, in
// definition order.
func printMetrics(w io.Writer, workload string, r result, defs []metricDef) {
	for _, d := range defs {
		v := r.Metrics[d.name]
		fmt.Fprintf(w, "%s %s %s %s\n", workload, d.name, strconv.FormatFloat(v.Value, 'g', -1, 64), v.Unit)
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchmark: ")
	name := flag.String("workload", "", "run this workload only, in this process")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 27, "seconds each run measures")
	traceFlag := flag.Int("trace", 0, "with -workload: 1 reports the per-layer metrics of a traced run")
	out := flag.String("out", "", "also write each result as JSON into this directory")
	compare := flag.Bool("compare", false, "compare the results in PARENT_DIR and CHANGE_DIR")
	specPath := flag.String("spec", "BENCHMARK.json", "with -compare: the benchmark definition holding directions and bounds")
	flag.Parse()
	runtime.GOMAXPROCS(nproc)

	switch {
	case *compare:
		if flag.NArg() != 2 {
			log.Fatal("usage: benchmark -compare PARENT_DIR CHANGE_DIR")
		}
		if err := compareDirs(os.Stdout, *specPath, flag.Arg(0), flag.Arg(1)); err != nil {
			log.Fatal(err)
		}
	case *name != "":
		if *traceFlag != 0 && *traceFlag != 1 {
			log.Fatalf("-trace is 0 or 1, not %d", *traceFlag)
		}
		if *seconds < 1 {
			log.Fatalf("-seconds must be at least 1")
		}
		sp, err := lookup(*name)
		if err != nil {
			log.Fatal(err)
		}
		cfg := config{seed: *seed, dir: ".bench_build"}
		res, err := run(context.Background(), sp, cfg, time.Duration(*seconds)*time.Second, *traceFlag == 1)
		if err != nil {
			log.Fatal(err)
		}
		defs := endToEnd
		if *traceFlag == 1 {
			defs = perLayer
		}
		printMetrics(os.Stdout, sp.name, res, defs)
		if *out != "" {
			if err := (record{Workload: sp.name, Seed: *seed, Trace: *traceFlag, Result: res}).write(*out); err != nil {
				log.Fatal(err)
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(string(line))
	default:
		if err := runAll(*seed, *seconds, *out); err != nil {
			log.Fatal(err)
		}
	}
}

// runAll runs every workload untraced and traced, each run in a child
// process, and prints the metric lines and then every result as one JSON
// object keyed by workload.
func runAll(seed int64, seconds int, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	all := map[string]map[string]result{}
	for _, sp := range workloads {
		all[sp.name] = map[string]result{}
		for trace, key := range []string{"untraced", "traced"} {
			args := []string{"-workload", sp.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace)}
			if out != "" {
				args = append(args, "-out", out)
			}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s (trace %d): %w", sp.name, trace, err)
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("%s (trace %d): reading result: %w", sp.name, trace, err)
			}
			defs := endToEnd
			if trace == 1 {
				defs = perLayer
			}
			printMetrics(os.Stdout, sp.name, res, defs)
			all[sp.name][key] = res
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

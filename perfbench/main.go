// Command perfbench is gowali's repository benchmark. It drives the
// runtime only through its public facade (gowali, gowali/wasm) and runs
// one of three workloads per invocation:
//
//	perfbench --workload batch|serve|coldstart --seed N --seconds S --trace 0|1
//	perfbench compare [--bench BENCHMARK.json] base.jsonl change.jsonl
//
// With --trace 0 it measures the end-to-end metrics with every hook off;
// with --trace 1 it alternates untraced and traced windows, records
// spans from its own code around each layer call, prints the per-layer
// table and writes a Chrome-trace/Perfetto JSON file. The last line of
// standard output is always one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// README.md beside this file defines every workload and metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"gowali/wasm"
)

// commit is stamped at build time (-ldflags -X main.commit=...).
var commit = "unknown"

// setupReps is how many times a run sets its workload up; setup_s is
// the median, and the last set-up instance is the one measured.
const setupReps = 21

// instance is one set-up workload: its runtimes, guests and inputs.
type instance interface {
	// run issues operations until deadline, recording each into rec.
	run(deadline time.Time, rec *recorder)
	close() error
}

// workload describes one traffic mix.
type workload struct {
	name string
	// setup builds an instance whose inputs derive from seed. A non-nil
	// tracer arms the layer hooks and span recording.
	setup func(seed int64, tr *tracer) (instance, error)
	// modules builds the workload's own guest modules, for the
	// decode/validate/compile probes of the traced run.
	modules func() ([]namedModule, error)
}

// namedModule is one of a workload's own guest modules.
type namedModule struct {
	name string
	m    *wasm.Module
}

var workloads = []workload{
	{name: "batch", setup: setupBatch, modules: batchModules},
	{name: "serve", setup: setupServe, modules: serveModules},
	{name: "coldstart", setup: setupColdstart, modules: coldModules},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// metricVal is one reported metric with the number of samples behind
// it.
type metricVal struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// record is the full result of one run, as appended to --results and
// read back by compare mode.
type record struct {
	Workload  string               `json:"workload"`
	Seed      int64                `json:"seed"`
	Seconds   float64              `json:"seconds"`
	Trace     bool                 `json:"trace"`
	Stamp     stamp                `json:"stamp"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(1)
		}
		return
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	name := fs.String("workload", "", "workload: batch, serve or coldstart")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced per-layer run")
	traceOut := fs.String("trace-out", "", "Chrome-trace JSON path (default .bench_build/trace-<workload>.json)")
	results := fs.String("results", "", "append the full result record to this JSON-lines file")
	fs.Parse(os.Args[1:])

	w, err := findWorkload(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		if err == nil {
			err = errors.New("--seconds must be positive and --trace 0 or 1")
		}
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	dur := time.Duration(*seconds * float64(time.Second))
	st := newStamp(*seed)
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%d\n", w.name, *seed, *seconds, *trace)
	fmt.Printf("stamp: %s\n", st)

	var rec record
	if *trace == 1 {
		out := *traceOut
		if out == "" {
			out = filepath.Join(".bench_build", "trace-"+w.name+".json")
		}
		rec, err = tracedRun(w, *seed, dur, out, os.Stdout)
	} else {
		rec, err = measureRun(w, *seed, dur)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Stamp = w.name, *seed, *seconds, *trace == 1, st
	printTable(os.Stdout, rec)
	if *results != "" {
		if err := appendRecord(*results, rec); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	if err := printResult(os.Stdout, rec); err != nil {
		os.Exit(1)
	}
}

// measureWindows splits the measured phase: rates, medians and
// per-operation costs are computed per window and the median over
// windows is reported, so a burst of outside load on the machine moves
// one window rather than the whole run.
const measureWindows = 10

// tailMinSamples is the window size below which a window's p99 has
// fewer than ten samples beyond it; latency_p99_us then comes from all
// of the run's operations instead of a median of window p99s.
const tailMinSamples = 1000

// measureRun is the end-to-end run: hooks off, set up setupReps times,
// then measure operations for dur.
func measureRun(w workload, seed int64, dur time.Duration) (record, error) {
	inst, setups, err := setupMedian(w, seed, nil)
	if err != nil {
		return record{}, err
	}
	all := newRecorder()
	var rates, p50s, p99s, cpus, allocs []float64
	runtime.GC()
	for k := 0; k < measureWindows; k++ {
		rec := newRecorder()
		before := sampleProc()
		start := time.Now()
		inst.run(start.Add(dur/measureWindows), rec)
		wall := time.Since(start)
		after := sampleProc()
		if rec.attempted == 0 {
			inst.close()
			return record{}, fmt.Errorf("%s: no operation completed in a %v window", w.name, dur/measureWindows)
		}
		n := float64(rec.attempted)
		lat := sortedCopy(rec.lat)
		rates = append(rates, float64(rec.attempted-rec.failed)/wall.Seconds())
		p50s = append(p50s, percentile(lat, 50))
		if len(lat) >= tailMinSamples {
			p99s = append(p99s, percentile(lat, 99))
		}
		cpus = append(cpus, (after.cpu-before.cpu).Seconds()*1e6/n)
		allocs = append(allocs, (after.alloc-before.alloc)/1024/n)
		all.merge(rec)
	}
	if all.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed; first: %v\n", all.failed, all.attempted, all.firstErr)
	}
	r := newRecord(all)
	r.put("setup_s", median(setups), "s", len(setups))
	r.put("ops_per_s", median(rates), "1/s", all.attempted)
	r.put("latency_p50_us", median(p50s), "us", all.attempted)
	if len(p99s) == measureWindows {
		r.put("latency_p99_us", median(p99s), "us", all.attempted)
	} else {
		r.put("latency_p99_us", percentile(sortedCopy(all.lat), 99), "us", all.attempted)
	}
	r.put("cpu_us_per_op", median(cpus), "us", all.attempted)
	r.put("alloc_kb_per_op", median(allocs), "KiB", all.attempted)
	// Live heap while the instance is still held, without the
	// benchmark's own latency samples.
	all.lat = nil
	runtime.GC()
	r.put("heap_live_mb", readMetric("/gc/heap/live:bytes")/(1<<20), "MiB", 1)
	closeErr := inst.close()
	r.put("fail_ratio", float64(all.failed)/float64(all.attempted), "ratio", all.attempted)
	if closeErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s teardown: %v\n", w.name, closeErr)
		r.Failed++
	}
	return r, nil
}

// setupMedian sets the workload up setupReps times, keeping the last
// instance, and returns every set-up duration in seconds.
func setupMedian(w workload, seed int64, tr *tracer) (instance, []float64, error) {
	var times []float64
	var inst instance
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, nil, fmt.Errorf("%s: teardown after setup: %w", w.name, err)
			}
		}
		runtime.GC()
		start := time.Now()
		var err error
		inst, err = w.setup(seed, tr)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return inst, times, nil
}

func newRecord(rec *recorder) record {
	return record{
		Attempted: rec.attempted,
		Failed:    rec.failed,
		Metrics:   map[string]metricVal{},
	}
}

func (r *record) put(name string, v float64, unit string, samples int) {
	r.Metrics[name] = metricVal{Value: v, Unit: unit, Samples: samples}
}

// procSample is process-wide resource use at one instant.
type procSample struct {
	cpu   time.Duration // user + system
	alloc float64       // cumulative heap bytes allocated
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return procSample{cpu: cpu, alloc: readMetric("/gc/heap/allocs:bytes")}
}

// readMetric reads one runtime/metrics value as a float64.
func readMetric(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	switch s[0].Value.Kind() {
	case metrics.KindUint64:
		return float64(s[0].Value.Uint64())
	case metrics.KindFloat64:
		return s[0].Value.Float64()
	}
	return 0
}

// resultLineExcludes are metrics printed in the table (and kept in
// --results records) but left out of the result line, which carries
// exactly the bounded metrics of BENCHMARK.json. fail_ratio is 0 on a
// correct program and is already the failed/attempted pair;
// latency_p99_us moves with the machine's background load by more than
// any bound the benchmark could hold it to (see README.md).
var resultLineExcludes = map[string]bool{"fail_ratio": true, "latency_p99_us": true}

// printTable prints every metric with its unit and sample count.
func printTable(w io.Writer, r record) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-28s %16s  %-8s %s\n", "metric", "value", "unit", "samples")
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "%-28s %16.6g  %-8s %d\n", n, m.Value, m.Unit, m.Samples)
	}
	fmt.Fprintf(w, "operations: attempted %d, failed %d\n", r.Attempted, r.Failed)
	if !r.Trace {
		fmt.Fprintf(w, "(rates, p50 and per-operation costs are medians over %d windows; setup_s is the median of %d set-ups)\n", measureWindows, setupReps)
	}
}

// resultMetric is a metric as the result line carries it.
type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult prints the one-line JSON result.
func printResult(w io.Writer, r record) error {
	m := map[string]resultMetric{}
	for n, v := range r.Metrics {
		if !resultLineExcludes[n] {
			m[n] = resultMetric{v.Value, v.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                    `json:"correct"`
		Attempted int                     `json:"attempted"`
		Failed    int                     `json:"failed"`
		Metrics   map[string]resultMetric `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, m})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

func appendRecord(path string, r record) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

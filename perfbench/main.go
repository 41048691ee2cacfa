// Command perfbench is the repository's benchmark: it runs one named
// workload against the FlashAbacus simulator and its daemon for a fixed
// time, checks every output it gets, and prints one JSON result line.
//
//	perfbench --workload repro-cold|serve-journal|restart --seed N
//	          --seconds S --trace 0|1 [--out DIR]
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// a separate traced run records a span around every call the benchmark
// makes into a layer of the program, writes the spans to DIR, and the
// result carries the per-layer metrics instead. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// stderr receives progress and diagnostics; tests silence it.
var stderr io.Writer = os.Stderr

// processStart is taken as early as the program can: set-up time counts
// from here.
var processStart = time.Now()

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator or the daemon sees.
// Every workload reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"pass_s", "s"}, {"cpu_s", "s"}, {"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"}, {"jobs_per_s", "1/s"}, {"p50_ms", "ms"}, {"p99_ms", "ms"},
}

// layers are the program's modules the traced run attributes time to;
// "bench" is the benchmark's own code between calls.
var layers = []string{"bench", "workload", "cluster", "core", "experiments", "service", "journal", "imagestore"}

// perLayer are the traced run's metrics. A workload that does not reach
// a layer reports 0 for that layer's metrics.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"workload.synth_s", "s"}, {"workload.bundles", "count"},
		{"cluster.image_build_s", "s"}, {"cluster.images_built", "count"},
		{"cluster.run_s", "s"}, {"cluster.runs", "count"},
		{"core.fork_s", "s"}, {"core.forks", "count"}, {"core.fork_alloc_mb", "MB"},
		{"core.run_s", "s"}, {"core.runs", "count"}, {"core.run_alloc_mb", "MB"},
		{"core.run_ns_per_group", "ns"},
		{"experiments.render_s", "s"}, {"experiments.render_warm_ms", "ms"},
	}
	for _, k := range cellKinds {
		defs = append(defs, metricDef{"experiments.cell_s." + k.name, "s"})
	}
	defs = append(defs,
		metricDef{"sim.kernels", "count"}, metricDef{"sim.makespan_s", "s"},
		metricDef{"flashvisor.read_groups", "count"}, metricDef{"flashvisor.write_groups", "count"},
		metricDef{"flashvisor.fg_reclaims", "count"}, metricDef{"flashvisor.lock_conflicts", "count"},
		metricDef{"storengine.bg_reclaims", "count"}, metricDef{"flash.retries", "count"},
		metricDef{"service.submit_ms", "ms"}, metricDef{"service.result_ms", "ms"},
		metricDef{"service.job_run_ms", "ms"}, metricDef{"service.recover_ms", "ms"},
		metricDef{"journal.appends_per_job", "count"}, metricDef{"journal.fsyncs_per_job", "count"},
		metricDef{"journal.bytes_per_job", "B"}, metricDef{"journal.compactions", "count"},
		metricDef{"journal.append_us", "us"}, metricDef{"journal.replay_ms", "ms"},
		metricDef{"journal.replay_records", "count"},
		metricDef{"imagestore.get_ms", "ms"}, metricDef{"imagestore.decode_ms", "ms"},
		metricDef{"imagestore.read_mb", "MB"}, metricDef{"imagestore.encode_ms", "ms"},
		metricDef{"imagestore.put_ms", "ms"}, metricDef{"imagestore.written_mb", "MB"},
		metricDef{"go.gc_cpu_s", "s"}, metricDef{"go.gc_cycles", "count"},
		metricDef{"model.bw_gain_pct", "%"}, metricDef{"model.energy_saving_pct", "%"},
	)
	for _, l := range layers {
		defs = append(defs, metricDef{"self_s." + l, "s"})
	}
	return append(defs, metricDef{"trace.overhead_s", "s"}, metricDef{"trace.spans", "count"})
}()

// env is what every workload runs with.
type env struct {
	seed    int64
	seconds time.Duration // measured window
	procs   int           // workers and client connections, at most nproc
	dir     string        // scratch directory for journals, inside the checkout
	tr      *tracer       // nil in the untraced run
	fsync   bool          // serve-journal fsyncs every journal append
}

// minRounds is the fewest rounds a window runs, however short: one, or
// in the traced run one untraced and one traced round, which alternate.
func (e *env) minRounds() int {
	if e.tr != nil {
		return 2
	}
	return 1
}

// report is a workload's outcome: operations attempted and failed, the
// metrics it measured, and every correctness check that did not hold.
type report struct {
	attempted, failed int64
	metrics           map[string]float64
	wrong             []error
}

func (r *report) check(err error) {
	if err != nil {
		r.wrong = append(r.wrong, err)
	}
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(context.Context, *env) (*report, error){
	"repro-cold": func(ctx context.Context, e *env) (*report, error) { return runReproCold(ctx, e, defaultRepro) },
	"serve-journal": func(ctx context.Context, e *env) (*report, error) {
		sz := defaultServe
		sz.syncJournal = e.fsync
		return runServe(ctx, e, sz)
	},
	"restart": func(ctx context.Context, e *env) (*report, error) { return runRestart(ctx, e, defaultRestart) },
}

func main() {
	name := flag.String("workload", "", "workload: repro-cold, serve-journal or restart")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for scratch files and spans")
	fsync := flag.Bool("journal-fsync", false, "serve-journal: fsync every journal append, as abacusd does on disk")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *out, *fsync); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int, out string, fsync bool) error {
	drive, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 || trace < 0 || trace > 1 {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(out, name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	e := &env{seed: seed, seconds: time.Duration(seconds) * time.Second,
		procs: runtime.GOMAXPROCS(0), dir: dir, fsync: fsync}
	if trace == 1 {
		e.tr = newTracer()
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := drive(ctx, e)
	if err != nil {
		return err
	}
	defs := endToEnd
	if e.tr != nil {
		defs = perLayer
		spans := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
		if err := e.tr.write(spans); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "perfbench: %d spans written to %s\n", len(e.tr.snapshot()), spans)
	}
	res := result{Correct: len(rep.wrong) == 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok && e.tr == nil {
			return fmt.Errorf("workload %s did not measure %s", name, d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for _, err := range rep.wrong {
		fmt.Fprintln(stderr, "perfbench: check failed:", err)
	}
	if e.tr != nil {
		printLayers(rep.metrics)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !res.Correct {
		return errors.New("outputs are not correct")
	}
	return nil
}

// printLayers prints each layer's self time and the tracing overhead to
// standard error, ahead of the result line.
func printLayers(m map[string]float64) {
	for _, l := range layers {
		fmt.Fprintf(stderr, "perfbench: self time %-12s %10.4f s\n", l, m["self_s."+l])
	}
	fmt.Fprintf(stderr, "perfbench: tracing overhead %.4f s per pass (traced minus untraced)\n", m["trace.overhead_s"])
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// sample is a reading of the process's resource counters.
type sample struct {
	wall     time.Time
	cpu      time.Duration // user plus system
	alloc    uint64        // bytes allocated on the heap since start
	gcCPU    float64       // seconds of CPU spent in the garbage collector
	gcCycles uint64
}

var runtimeMetrics = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/gc/cycles/total:gc-cycles"}

func takeSample() sample {
	ms := make([]metrics.Sample, len(runtimeMetrics))
	for i, n := range runtimeMetrics {
		ms[i].Name = n
	}
	metrics.Read(ms)
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return sample{
		wall:     time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:    ms[0].Value.Uint64(),
		gcCPU:    ms[1].Value.Float64(),
		gcCycles: ms[2].Value.Uint64(),
	}
}

// usage is the resource use between two samples.
type usage struct {
	wall, cpu time.Duration
	allocMB   float64
	gcCPU     float64
	gcCycles  float64
}

func since(a sample) usage {
	b := takeSample()
	return usage{
		wall:     b.wall.Sub(a.wall),
		cpu:      b.cpu - a.cpu,
		allocMB:  float64(b.alloc-a.alloc) / 1e6,
		gcCPU:    b.gcCPU - a.gcCPU,
		gcCycles: float64(b.gcCycles - a.gcCycles),
	}
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024            // Linux reports kilobytes
}

// windowMetrics fills the end-to-end metrics every workload derives the
// same way from its measured rounds: the median round's wall time, CPU
// time and allocation, and the process's peak RSS.
func windowMetrics(m map[string]float64, rounds []usage) {
	var wall, cpu, alloc, gcCPU, gcCycles []float64
	for _, u := range rounds {
		wall = append(wall, u.wall.Seconds())
		cpu = append(cpu, u.cpu.Seconds())
		alloc = append(alloc, u.allocMB)
		gcCPU = append(gcCPU, u.gcCPU)
		gcCycles = append(gcCycles, u.gcCycles)
	}
	m["pass_s"] = median(wall)
	m["cpu_s"] = median(cpu)
	m["alloc_mb"] = median(alloc)
	m["go.gc_cpu_s"] = median(gcCPU)
	m["go.gc_cycles"] = median(gcCycles)
	m["peak_rss_mb"] = peakRSSMB()
}

// minBlock is the fewest operations a latency percentile is taken over:
// a p99 of 1000 operations has ten beyond it.
const minBlock = 1000

// latencyMetrics fills p50_ms and p99_ms from the per-operation latencies
// of each round. Rounds are gathered, in order, into blocks of at least
// minBlock operations (a short tail joins the last block); each metric is
// the median over the blocks of the block's percentile, so one stalled
// stretch of a run does not set the figure.
func latencyMetrics(m map[string]float64, rounds [][]float64) {
	var blocks [][]float64
	var cur []float64
	for _, r := range rounds {
		cur = append(cur, r...)
		if len(cur) >= minBlock {
			blocks, cur = append(blocks, cur), nil
		}
	}
	if n := len(blocks); n == 0 {
		blocks = [][]float64{cur}
	} else {
		blocks[n-1] = append(blocks[n-1], cur...)
	}
	var p50, p99 []float64
	for _, b := range blocks {
		p50 = append(p50, percentile(b, 50))
		p99 = append(p99, percentile(b, 99))
	}
	m["p50_ms"] = median(p50)
	m["p99_ms"] = median(p99)
}

// traceMetrics fills the span-derived per-layer metrics: every layer's
// self time and the number of spans.
func traceMetrics(m map[string]float64, tr *tracer) {
	spans := tr.snapshot()
	self := selfTimes(spans)
	for _, l := range layers {
		m["self_s."+l] = self[l].Seconds()
	}
	m["trace.spans"] = float64(len(spans))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/workload"
)

// reproSize shapes the repro-cold workload: a full reproduction as
// `abacus-repro -scale <scale> -devices <devices> -topology -faults <faults>`
// prints it.
type reproSize struct {
	scale   int64
	devices int
	faults  string
}

// At scale 1 the topology study fails (see CHANGES.md); scale 2 is the
// largest input at which every cell runs to its end.
var defaultRepro = reproSize{scale: 2, devices: 8, faults: "cardloss"}

// cellKinds names the eight kinds of experiment cell.
var cellKinds = []struct {
	kind experiments.Kind
	name string
}{
	{experiments.KindHomogeneous, "homogeneous"}, {experiments.KindHeterogeneous, "heterogeneous"},
	{experiments.KindBigdata, "bigdata"}, {experiments.KindSensitivity, "sensitivity"},
	{experiments.KindSeries, "series"}, {experiments.KindCluster, "cluster"},
	{experiments.KindTopology, "topology"}, {experiments.KindFault, "fault"},
}

func kindName(k experiments.Kind) string {
	for _, c := range cellKinds {
		if c.kind == k {
			return c.name
		}
	}
	return fmt.Sprintf("kind%d", int(k))
}

// newReproSuite returns a fresh suite, with its own empty image cache and
// no image store, set up as the CLI sets one up for the full run.
func newReproSuite(rs reproSize, workers int) (*experiments.Suite, []experiments.Experiment, error) {
	plan, err := faults.Preset(rs.faults)
	if err != nil {
		return nil, nil, err
	}
	s := experiments.NewSuite(rs.scale)
	s.Workers = workers
	s.MaxDevices = rs.devices
	s.SetFaultScenarios([]experiments.FaultScenario{{Name: rs.faults, Plan: plan}})
	sel, err := experiments.Select("all", rs.devices, true, true)
	return s, sel, err
}

// cellWant is what a cell's result must show: one completed kernel per
// kernel table of its bundle, and the bundle's declared read bytes.
type cellWant struct {
	kernels int
	bytes   int64
}

// bundleFor synthesizes the workload a cell runs, as the suite does.
func bundleFor(j experiments.Job, o workload.Options) (*workload.Bundle, error) {
	switch {
	case j.Kind == experiments.KindSensitivity:
		b, _, err := workload.Sensitivity(j.Pct, j.Cores, o)
		return b, err
	case j.Name != "":
		return workload.Homogeneous(j.Name, o)
	default:
		return workload.Mix(j.Mix, o)
	}
}

func wantOf(b *workload.Bundle) cellWant {
	w := cellWant{bytes: b.Bytes}
	for _, app := range b.Apps {
		w.kernels += len(app.Tables)
	}
	return w
}

// checkCell checks one cell's result against its bundle.
func checkCell(j experiments.Job, r *stats.Result, w cellWant) error {
	switch {
	case r == nil:
		return fmt.Errorf("%s: no result", j)
	case len(r.KernelLatencies) != w.kernels || len(r.CompletionTimes) != w.kernels:
		return fmt.Errorf("%s: %d kernel latencies and %d completions, bundle has %d kernels",
			j, len(r.KernelLatencies), len(r.CompletionTimes), w.kernels)
	case r.Bytes != w.bytes:
		return fmt.Errorf("%s: %d bytes processed, bundle declares %d", j, r.Bytes, w.bytes)
	case !(r.WorkerUtil >= 0 && r.WorkerUtil <= 1):
		return fmt.Errorf("%s: worker utilization %v outside [0,1]", j, r.WorkerUtil)
	}
	return nil
}

// overflowed reports a result hit by the known compute-time overflow:
// units.Cycles multiplies a cycle count by picoseconds per second in
// int64, so a screen of more than about 9.2M cycles gets a negative
// compute time. At scale 2 every cell running 3MM, 2MM, SYR2K or a mix
// holding one of them does, and its worker utilization falls below 0.
// Such a cell counts as a failed operation; its other outputs are not
// checked, since its simulated times are wrong.
func overflowed(r *stats.Result) bool { return r != nil && r.WorkerUtil < 0 }

// checkGovernors checks the paper's central claim on the model: every
// FlashAbacus governor beats SIMD on throughput and on total energy for
// each Table 2 application, each mix and each bigdata application. It
// returns every violation, joined.
func checkGovernors(get func(experiments.Job) *stats.Result) error {
	var errs []error
	for _, base := range governorBases() {
		if skipBase(base, get) {
			continue
		}
		simd := base
		simd.Sys = core.SIMD
		rs := get(simd)
		for _, sys := range core.FlashAbacusSystems {
			j := base
			j.Sys = sys
			r := get(j)
			if !(r.ThroughputMBps() > rs.ThroughputMBps()) {
				errs = append(errs, fmt.Errorf("%s: throughput %.2f MB/s does not beat SIMD's %.2f", j, r.ThroughputMBps(), rs.ThroughputMBps()))
			}
			if !(r.Energy.Total() < rs.Energy.Total()) {
				errs = append(errs, fmt.Errorf("%s: energy %.4g J does not beat SIMD's %.4g", j, r.Energy.Total(), rs.Energy.Total()))
			}
		}
	}
	return errors.Join(errs...)
}

// skipBase reports a workload the governor comparison cannot use: a
// system's result is missing or hit by the compute-time overflow.
func skipBase(base experiments.Job, get func(experiments.Job) *stats.Result) bool {
	for _, sys := range core.Systems {
		j := base
		j.Sys = sys
		if r := get(j); r == nil || overflowed(r) {
			return true
		}
	}
	return false
}

// governorBases lists the workloads the governor check covers, with the
// system left unset.
func governorBases() []experiments.Job {
	var out []experiments.Job
	for _, n := range workload.Names() {
		out = append(out, experiments.Job{Kind: experiments.KindHomogeneous, Name: n})
	}
	for n := 1; n <= workload.MixCount; n++ {
		out = append(out, experiments.Job{Kind: experiments.KindHeterogeneous, Mix: n})
	}
	for _, n := range workload.BigdataNames() {
		out = append(out, experiments.Job{Kind: experiments.KindBigdata, Name: n})
	}
	return out
}

// paperGains returns IntraO3's mean bandwidth gain and energy saving over
// SIMD, in percent, across the Table 2 applications and the mixes: the
// simulated counterparts of the paper's 127% and 78.4%.
func paperGains(get func(experiments.Job) *stats.Result) (gainPct, savingPct float64) {
	var n float64
	for _, base := range governorBases() {
		if base.Kind == experiments.KindBigdata || skipBase(base, get) {
			continue
		}
		simd, o3 := base, base
		simd.Sys, o3.Sys = core.SIMD, core.IntraO3
		rs, ro := get(simd), get(o3)
		gainPct += (ro.ThroughputMBps()/rs.ThroughputMBps() - 1) * 100
		savingPct += (1 - ro.Energy.Total()/rs.Energy.Total()) * 100
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return gainPct / n, savingPct / n
}

// passResult is one cold reproduction pass.
type passResult struct {
	suite *experiments.Suite
	out   []byte
	cells []float64 // per-cell latency, ms
	err   error
}

// reproPass runs one full reproduction in a fresh suite: the cells fill
// through a runner pool exactly as Suite.Prewarm fills them (timing each
// cell), then Suite.Render prints every table, reading warm cells.
func reproPass(ctx context.Context, tr *tracer, rs reproSize, workers int, cells []experiments.Job) passResult {
	ctx, _ = tr.newTrace(ctx)
	ctx, end := tr.begin(ctx, "bench", "bench.pass")
	defer end()
	s, sel, err := newReproSuite(rs, workers)
	if err != nil {
		return passResult{err: err}
	}
	lat := make([]float64, len(cells))
	err = runner.New(workers).EachAll(ctx, len(cells), func(ctx context.Context, i int) error {
		_, end := tr.begin(ctx, "experiments", "experiments.cell."+kindName(cells[i].Kind))
		t0 := time.Now()
		_, err := s.Run(ctx, cells[i])
		lat[i] = ms(time.Since(t0))
		end()
		return err
	})
	if err != nil {
		return passResult{suite: s, err: err}
	}
	var buf bytes.Buffer
	_, endRender := tr.begin(ctx, "experiments", "experiments.Suite.Render")
	err = s.Render(ctx, &buf, sel)
	endRender()
	return passResult{suite: s, out: buf.Bytes(), cells: lat, err: err}
}

// runReproCold measures cold full reproductions. Set-up renders the
// reference output with one worker; the window then runs whole passes,
// each in a fresh suite; afterwards every cell is driven directly through
// the layers below the suite and compared with the suite's result.
func runReproCold(ctx context.Context, e *env, rs reproSize) (*report, error) {
	tmpl, sel, err := newReproSuite(rs, e.procs)
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, x := range sel {
		ids = append(ids, x.ID)
	}
	cells := tmpl.CellsFor(ids)
	o := workload.DefaultOptions()
	o.Scale = rs.scale
	want := map[experiments.Job]cellWant{}
	for _, j := range cells {
		b, err := bundleFor(j, o)
		if err != nil {
			return nil, err
		}
		want[j] = wantOf(b)
	}
	one, _, err := newReproSuite(rs, 1)
	if err != nil {
		return nil, err
	}
	var ref bytes.Buffer
	if err := one.Render(ctx, &ref, sel); err != nil {
		return nil, fmt.Errorf("one-worker reference render: %w", err)
	}
	rep := &report{metrics: map[string]float64{"setup_s": time.Since(processStart).Seconds()}}

	var rounds []usage
	var lat [][]float64
	var rates, traced []float64
	var last *experiments.Suite
	for start, n := time.Now(), 0; n < e.minRounds() || time.Since(start) < e.seconds; n++ {
		// The traced run alternates untraced and traced passes, so the
		// tracing overhead is measured within one process.
		tr := e.tr
		if n%2 == 0 {
			tr = nil
		}
		before := takeSample()
		p := reproPass(ctx, tr, rs, e.procs, cells)
		u := since(before)
		rep.attempted += int64(len(cells))
		if p.err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			rep.failed += int64(len(cells))
			fmt.Fprintln(stderr, "perfbench: pass failed:", p.err)
			continue
		}
		if tr == nil {
			rounds = append(rounds, u)
			lat = append(lat, p.cells)
			rates = append(rates, float64(len(cells))/u.wall.Seconds())
		} else {
			traced = append(traced, u.wall.Seconds())
		}
		if !bytes.Equal(p.out, ref.Bytes()) {
			rep.check(fmt.Errorf("pass ending at cell %d: rendered bytes differ from the one-worker render", rep.attempted))
		}
		for _, j := range cells {
			r, err := p.suite.Run(ctx, j)
			if err != nil {
				rep.check(err)
				continue
			}
			if overflowed(r) {
				rep.failed++
				continue
			}
			rep.check(checkCell(j, r, want[j]))
		}
		last = p.suite
	}
	if last == nil {
		return nil, errors.New("no pass completed")
	}
	get := func(j experiments.Job) *stats.Result {
		r, _ := last.Run(ctx, j)
		return r
	}
	rep.check(checkGovernors(get))

	m := rep.metrics
	windowMetrics(m, rounds)
	latencyMetrics(m, lat)
	m["jobs_per_s"] = median(rates)
	if e.tr == nil {
		t0 := time.Now()
		rep.check(driveDirect(ctx, nil, rs, cells, get, m))
		fmt.Fprintf(stderr, "perfbench: %d passes, direct drive %.2fs\n", len(rounds), time.Since(t0).Seconds())
		return rep, nil
	}

	// Per-layer metrics: medians over the traced passes, then the direct
	// drive of every cell in its own trace.
	perPass := map[int64]map[string]float64{} // trace -> span name -> seconds
	for _, s := range e.tr.snapshot() {
		if perPass[s.Trace] == nil {
			perPass[s.Trace] = map[string]float64{}
		}
		perPass[s.Trace][s.Name] += float64(s.End-s.Start) / 1e9
	}
	medianOf := func(name string) float64 {
		var xs []float64
		for _, tot := range perPass {
			xs = append(xs, tot[name])
		}
		return median(xs)
	}
	m["experiments.render_s"] = medianOf("experiments.Suite.Render")
	for _, k := range cellKinds {
		m["experiments.cell_s."+k.name] = medianOf("experiments.cell." + k.name)
	}
	m["trace.overhead_s"] = median(traced) - m["pass_s"]
	for _, j := range cells {
		r := get(j)
		m["sim.kernels"] += float64(len(r.KernelLatencies))
		m["sim.makespan_s"] += float64(r.Makespan) / 1e9
		m["flashvisor.read_groups"] += float64(r.Visor.ReadGroups)
		m["flashvisor.write_groups"] += float64(r.Visor.WriteGroups)
		m["flashvisor.fg_reclaims"] += float64(r.Visor.FGReclaims)
		m["flashvisor.lock_conflicts"] += float64(r.LockConflicts)
		m["storengine.bg_reclaims"] += float64(r.BGReclaims)
		m["flash.retries"] += float64(r.FlashRetries)
	}
	m["model.bw_gain_pct"], m["model.energy_saving_pct"] = paperGains(get)
	var warm []float64
	for _, x := range sel {
		var buf bytes.Buffer
		t0 := time.Now()
		if err := last.Render(ctx, &buf, []experiments.Experiment{x}); err != nil {
			return nil, err
		}
		warm = append(warm, ms(time.Since(t0)))
	}
	m["experiments.render_warm_ms"] = median(warm)
	rep.check(driveDirect(ctx, e.tr, rs, cells, get, m))
	traceMetrics(m, e.tr)
	return rep, nil
}

// driveDirect runs every cell again, one at a time, straight through the
// layers under the suite — workload synthesis, then ImageCache, Image.Fork
// and Device.Run for single-device cells or cluster.Run for multi-card
// ones — and checks each result equals the suite's. With a tracer it fills
// the workload, cluster and core metrics.
func driveDirect(ctx context.Context, tr *tracer, rs reproSize, cells []experiments.Job,
	suite func(experiments.Job) *stats.Result, m map[string]float64) error {
	plan, err := faults.Preset(rs.faults)
	if err != nil {
		return err
	}
	o := workload.DefaultOptions()
	o.Scale = rs.scale
	images := cluster.NewImageCache()
	ctx, _ = tr.newTrace(ctx)
	var d direct
	for _, j := range cells {
		r, err := d.cell(ctx, tr, images, o, plan, j)
		if err != nil {
			return fmt.Errorf("direct %s: %w", j, err)
		}
		if !reflect.DeepEqual(r, suite(j)) {
			return fmt.Errorf("direct %s: result differs from the suite's", j)
		}
	}
	if tr == nil {
		return nil
	}
	m["workload.synth_s"] = d.synth.Seconds()
	m["workload.bundles"] = float64(d.bundles)
	m["cluster.image_build_s"] = d.build.Seconds()
	m["cluster.images_built"] = float64(images.Stats().ImageMisses)
	m["cluster.run_s"] = d.cluster.Seconds()
	m["cluster.runs"] = float64(d.clusterRuns)
	d.coreMetrics(m)
	return nil
}

// singleConfig returns the device configuration of a cell that runs on
// one card, as the suite derives it, and false for a multi-card cell.
func singleConfig(j experiments.Job) (core.Config, bool) {
	cfg := core.DefaultConfig(j.Sys)
	switch j.Kind {
	case experiments.KindSensitivity:
		cfg = core.DefaultConfig(core.SIMD)
		cfg.Workers = j.Cores
	case experiments.KindSeries:
		cfg.CollectSeries = true
	case experiments.KindCluster:
		return cfg, j.Devices <= 1
	case experiments.KindTopology, experiments.KindFault:
		return cfg, false
	}
	return cfg, true
}

// coreMetrics fills the core layer's metrics from the forks and runs.
func (d *direct) coreMetrics(m map[string]float64) {
	m["core.fork_s"] = d.fork.Seconds()
	m["core.forks"] = float64(d.forks)
	m["core.fork_alloc_mb"] = d.forkAlloc / 1e6
	m["core.run_s"] = d.run.Seconds()
	m["core.runs"] = float64(d.runs)
	m["core.run_alloc_mb"] = d.runAlloc / 1e6
	if d.groups > 0 {
		m["core.run_ns_per_group"] = float64(d.run) / float64(d.groups)
	}
}

// direct accumulates what the direct drive measured.
type direct struct {
	synth, build, fork, run, cluster  time.Duration
	bundles, forks, runs, clusterRuns int
	forkAlloc, runAlloc               float64
	groups                            int64 // flash page groups the direct device runs moved
}

// timed runs f inside a span and returns its duration and the bytes it
// allocated. The drive is sequential, so the allocation is f's own.
func timed(ctx context.Context, tr *tracer, layer, name string, f func(context.Context) error) (time.Duration, float64, error) {
	ctx, end := tr.begin(ctx, layer, name)
	before := takeSample()
	err := f(ctx)
	u := since(before)
	end()
	return u.wall, u.allocMB * 1e6, err
}

func (d *direct) cell(ctx context.Context, tr *tracer, images *cluster.ImageCache, o workload.Options,
	plan *faults.Plan, j experiments.Job) (*stats.Result, error) {
	ctx, end := tr.begin(ctx, "bench", "bench.cell."+kindName(j.Kind))
	defer end()
	var b *workload.Bundle
	dt, _, err := timed(ctx, tr, "workload", "workload.synthesize", func(context.Context) error {
		var err error
		b, err = bundleFor(j, o)
		return err
	})
	if err != nil {
		return nil, err
	}
	d.synth += dt
	d.bundles++

	var res *stats.Result
	cfg, single := singleConfig(j)
	if !single {
		// Multi-card cells, configured as the suite configures them.
		cfg := core.DefaultConfig(j.Sys)
		opts := cluster.Options{Policy: j.Policy, Workers: 1, Images: images}
		switch j.Kind {
		case experiments.KindTopology:
			topo, err := cluster.Preset(j.Topo, j.Devices)
			if err != nil {
				return nil, err
			}
			opts.Topology = topo
		case experiments.KindFault:
			cfg.Devices = j.Devices
			opts.Faults = plan
		default:
			cfg.Devices = j.Devices
		}
		dt, _, err := timed(ctx, tr, "cluster", "cluster.Run", func(ctx context.Context) error {
			var err error
			res, err = cluster.Run(ctx, cfg, b, opts)
			return err
		})
		d.cluster += dt
		d.clusterRuns++
		return res, err
	}

	var img *core.Image
	dt, _, err = timed(ctx, tr, "cluster", "cluster.ImageCache.Offloaded", func(ctx context.Context) error {
		var err error
		img, err = images.Offloaded(ctx, cfg, b)
		return err
	})
	if err != nil {
		return nil, err
	}
	d.build += dt
	var dev *core.Device
	dt, alloc, err := timed(ctx, tr, "core", "core.Image.Fork", func(context.Context) error {
		var err error
		dev, err = img.Fork(cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	d.fork += dt
	d.forkAlloc += alloc
	d.forks++
	dt, alloc, err = timed(ctx, tr, "core", "core.Device.Run", func(ctx context.Context) error {
		var err error
		res, err = dev.Run(ctx)
		return err
	})
	if err != nil {
		return nil, err
	}
	d.run += dt
	d.runAlloc += alloc
	d.runs++
	d.groups += res.Visor.ReadGroups + res.Visor.WriteGroups
	if j.Kind != experiments.KindSensitivity {
		res.Workload = b.Name // as the cluster layer labels single-device results
	}
	return res, nil
}

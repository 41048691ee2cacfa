package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/power"
	"repro/internal/service"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

func TestMain(m *testing.M) {
	stderr = io.Discard
	os.Exit(m.Run())
}

func TestPercentile(t *testing.T) {
	xs := []float64{35, 20, 50, 15, 40}
	for _, c := range []struct{ p, want float64 }{
		{1, 15}, {20, 15}, {30, 20}, {40, 20}, {50, 35}, {80, 40}, {99, 50}, {100, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if xs[0] != 35 {
		t.Errorf("percentile sorted its input in place: %v", xs)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if got := median([]float64{7, 1, 3}); got != 3 {
		t.Errorf("median of 1,3,7 = %v, want 3", got)
	}
	if percentile(nil, 50) != 0 || median(nil) != 0 {
		t.Error("empty input must yield 0")
	}
}

func TestLatencyBlocks(t *testing.T) {
	// Rounds of 600 operations make blocks of 1200; the last round of 300
	// joins the second block. Block 1 holds 1..1200, block 2 1201..2700.
	var rounds [][]float64
	v := 0.0
	for _, n := range []int{600, 600, 600, 600, 300} {
		var r []float64
		for i := 0; i < n; i++ {
			v++
			r = append(r, v)
		}
		rounds = append(rounds, r)
	}
	m := map[string]float64{}
	latencyMetrics(m, rounds)
	// p50: 600 and 1200+750; p99: 1188 and 1200+1485.
	if want := (600.0 + 1950) / 2; m["p50_ms"] != want {
		t.Errorf("p50 = %v, want %v", m["p50_ms"], want)
	}
	if want := (1188.0 + 2685) / 2; m["p99_ms"] != want {
		t.Errorf("p99 = %v, want %v", m["p99_ms"], want)
	}
	latencyMetrics(m, [][]float64{{3, 1, 2}})
	if m["p50_ms"] != 2 || m["p99_ms"] != 3 {
		t.Errorf("a run shorter than one block: p50 %v, p99 %v; want 2 and 3", m["p50_ms"], m["p99_ms"])
	}
}

func TestCovered(t *testing.T) {
	// Two overlapping children and one past the parent's end.
	ivs := [][2]int64{{10, 30}, {20, 40}, {90, 120}}
	if got := covered(ivs, 0, 100); got != 30+10 {
		t.Errorf("covered = %d, want 40", got)
	}
	spans := []span{
		{ID: 1, Layer: "bench", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "core", Start: 10, End: 30},
		{ID: 3, Parent: 1, Layer: "core", Start: 20, End: 40},
	}
	self := selfTimes(spans)
	if self["bench"] != 70 || self["core"] != 40 {
		t.Errorf("self times = %v, want bench 70 and core 40", self)
	}
}

func TestCheckCellRejectsDroppedKernel(t *testing.T) {
	j := experiments.Job{Kind: experiments.KindHeterogeneous, Mix: 2, Sys: core.IntraO3}
	r, err := experiments.NewSuite(256).Run(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	o := workload.DefaultOptions()
	o.Scale = 256
	b, err := bundleFor(j, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkCell(j, r, wantOf(b)); err != nil {
		t.Fatalf("untampered cell rejected: %v", err)
	}
	dropped := *r
	dropped.KernelLatencies = r.KernelLatencies[:len(r.KernelLatencies)-1]
	dropped.CompletionTimes = r.CompletionTimes[:len(r.CompletionTimes)-1]
	if checkCell(j, &dropped, wantOf(b)) == nil {
		t.Error("a dropped kernel completion passed the check")
	}
	short := *r
	short.Bytes--
	if checkCell(j, &short, wantOf(b)) == nil {
		t.Error("a short byte count passed the check")
	}
}

func TestCheckGovernorsRejectsSIMDBeatingIntraO3(t *testing.T) {
	// Results where every FlashAbacus system halves SIMD's makespan and
	// energy on every workload.
	get := func(j experiments.Job) *stats.Result {
		r := &stats.Result{Bytes: 1 << 30, Makespan: units.Second, WorkerUtil: 0.5}
		r.Energy[power.Compute] = 1
		if j.Sys == core.SIMD {
			r.Makespan *= 2
			r.Energy[power.Compute] = 2
		}
		return r
	}
	if err := checkGovernors(get); err != nil {
		t.Fatalf("untampered results rejected: %v", err)
	}
	simd := experiments.Job{Kind: experiments.KindHomogeneous, Name: "ATAX", Sys: core.SIMD}
	for name, tamper := range map[string]func(*stats.Result){
		"faster":    func(r *stats.Result) { r.Makespan = units.Second / 2 },
		"frugaller": func(r *stats.Result) { r.Energy[power.Compute] = 0.5 },
	} {
		tampered := func(j experiments.Job) *stats.Result {
			r := get(j)
			if j == simd {
				tamper(r)
			}
			return r
		}
		if checkGovernors(tampered) == nil {
			t.Errorf("a SIMD cell %s than IntraO3 passed the check", name)
		}
	}
}

func TestCheckServedRejectsFlippedByte(t *testing.T) {
	want := []byte("== Table 1: hardware specification ==\n")
	got := append([]byte(nil), want...)
	if err := checkServed("j000001", "t1", got, want); err != nil {
		t.Fatalf("identical bytes rejected: %v", err)
	}
	got[7] ^= 0x20
	if checkServed("j000001", "t1", got, want) == nil {
		t.Error("a flipped byte passed the check")
	}
}

func TestCheckJobSetRejectsLostJob(t *testing.T) {
	h := makeHistory(restartSize{finished: []string{"t1", "t2"}, pending: []string{"fig12", "mixes"}, dispatched: 1}, 7)
	var list []service.JobStatus
	for _, j := range h {
		list = append(list, service.JobStatus{ID: j.id})
	}
	if err := checkJobSet(h, list); err != nil {
		t.Fatalf("complete job set rejected: %v", err)
	}
	if checkJobSet(h, list[1:]) == nil {
		t.Error("a job lost in the restart passed the check")
	}
}

func TestMakeHistoryIsSeeded(t *testing.T) {
	sz := restartSize{finished: []string{"t1", "t2", "t1"}, pending: []string{"fig12", "mixes", "t2"}, dispatched: 2}
	a, b := makeHistory(sz, 3), makeHistory(sz, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed gave different histories: %v vs %v", a, b)
		}
	}
	var fin, disp int
	for _, j := range a {
		if j.finished {
			fin++
		} else if j.dispatched {
			disp++
		}
	}
	if fin != 3 || disp != 2 {
		t.Errorf("history has %d finished and %d dispatched pending jobs, want 3 and 2", fin, disp)
	}
}

func TestDoneJobs(t *testing.T) {
	text := "abacusd_jobs_total{event=\"accepted\"} 9\nabacusd_jobs_total{event=\"done\"} 7\n"
	if n, err := doneJobs(text); err != nil || n != 7 {
		t.Errorf("doneJobs = %d, %v; want 7", n, err)
	}
	if _, err := doneJobs("abacusd_queue_depth 0\n"); err == nil {
		t.Error("a scrape without the done counter was accepted")
	}
}

// TestWorkloadsRunOnce runs every workload at a reduced size, untraced
// and traced, and requires correct outputs and every metric.
func TestWorkloadsRunOnce(t *testing.T) {
	small := map[string]func(context.Context, *env) (*report, error){
		"repro-cold": func(ctx context.Context, e *env) (*report, error) {
			return runReproCold(ctx, e, reproSize{scale: 16, devices: 2, faults: "cardloss"})
		},
		"serve-journal": func(ctx context.Context, e *env) (*report, error) {
			return runServe(ctx, e, serveSize{scale: 256, ids: []string{"t1", "fig12", "fig3d"}, perRound: 2,
				streamEvery: 2, syncJournal: e.tr != nil})
		},
		"restart": func(ctx context.Context, e *env) (*report, error) {
			return runRestart(ctx, e, restartSize{scale: 256, finished: []string{"t1", "fig12"},
				pending: []string{"fig12", "fig3d", "t1"}, dispatched: 1})
		},
	}
	for name, drive := range small {
		for _, traced := range []bool{false, true} {
			e := &env{seed: 1, seconds: time.Nanosecond, procs: 2, dir: t.TempDir()}
			if traced {
				e.tr = newTracer()
			}
			rep, err := drive(context.Background(), e)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", name, traced, err)
			}
			for _, w := range rep.wrong {
				var joined interface{ Unwrap() []error }
				if !errors.As(w, &joined) {
					t.Errorf("%s (traced %v): %v", name, traced, w)
					continue
				}
				for _, w := range joined.Unwrap() {
					// Away from the compute-time overflow of scale 2, the
					// model's InterSt loses to SIMD on mix MX4.
					if !strings.HasPrefix(w.Error(), "MX4/InterSt: throughput") {
						t.Errorf("%s (traced %v): %v", name, traced, w)
					}
				}
			}
			if rep.attempted == 0 || rep.failed != 0 {
				t.Errorf("%s (traced %v): %d attempted, %d failed", name, traced, rep.attempted, rep.failed)
			}
			for _, d := range endToEnd {
				if v, ok := rep.metrics[d.name]; !ok || v <= 0 {
					t.Errorf("%s (traced %v): %s = %v, want a positive value", name, traced, d.name, v)
				}
			}
			if traced && rep.metrics["trace.spans"] == 0 {
				t.Errorf("%s: the traced run recorded no spans", name)
			}
			if traced && name == "serve-journal" {
				// Accepted, Dispatched and Done, each fsynced.
				if a, f := rep.metrics["journal.appends_per_job"], rep.metrics["journal.fsyncs_per_job"]; a != 3 || f < 3 {
					t.Errorf("serve-journal: %v appends and %v fsyncs per job, want 3 and at least 3", a, f)
				}
			}
		}
	}
}

// TestBenchmarkFileMatchesMetrics keeps BENCHMARK.json at the repository
// root in step with the metrics the program prints.
func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the program does not run", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	same := func(kind string, file []metric, prog []metricDef) {
		want := map[string]string{}
		for _, d := range prog {
			want[d.name] = d.unit
		}
		for _, m := range file {
			if u, ok := want[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s metric %s (%s) in BENCHMARK.json: program has unit %q", kind, m.Name, m.Unit, u)
			}
			delete(want, m.Name)
		}
		for name := range want {
			t.Errorf("%s metric %s is missing from BENCHMARK.json", kind, name)
		}
	}
	same("end-to-end", spec.EndToEnd, endToEnd)
	same("per-layer", spec.PerLayer, perLayer)
}

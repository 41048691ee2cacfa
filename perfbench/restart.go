package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/imagestore"
	"repro/internal/journal"
	"repro/internal/service"
	"repro/internal/stats"
	"repro/internal/workload"
)

// restartSize shapes the restart workload's crash history.
type restartSize struct {
	scale      int64
	finished   []string // experiment ids of jobs that finished before the crash
	pending    []string // experiment ids of jobs accepted but never finished
	dispatched int      // pending jobs that a worker had picked up
}

var defaultRestart = restartSize{
	scale:      16,
	finished:   repeat(singleDeviceIDs(), 8),
	pending:    repeat([]string{"fig10a", "fig10b", "fig11a", "fig12", "fig14b", "fig16a", "fig3d", "fig15", "t1", "mixes"}, 8),
	dispatched: 2,
}

// repeat returns n copies of ids, one after another.
func repeat(ids []string, n int) []string {
	var out []string
	for i := 0; i < n; i++ {
		out = append(out, ids...)
	}
	return out
}

// storeImage is one image the restart forks, as set-up stored it.
type storeImage struct {
	key string
	cfg core.Config
	img *core.Image // the freshly built image
}

// tracedStore wraps the memory-backed image store, counting and timing
// every call the daemon makes into it.
type tracedStore struct {
	st *imagestore.MemStore
	tr *tracer

	mu              sync.Mutex
	getDur, putDur  time.Duration
	readB, writtenB int64
	fetched         []string // keys read since the last reset
	tracing         atomic.Bool
}

func (s *tracedStore) Get(key string) ([]byte, error) {
	t0 := time.Now()
	b, err := s.st.Get(key)
	t1 := time.Now()
	if s.tracing.Load() {
		s.tr.record("imagestore", "imagestore.MemStore.Get", t0, t1)
	}
	s.mu.Lock()
	s.getDur += t1.Sub(t0)
	s.readB += int64(len(b))
	s.fetched = append(s.fetched, key)
	s.mu.Unlock()
	return b, err
}

func (s *tracedStore) Put(key string, blob []byte) error {
	t0 := time.Now()
	err := s.st.Put(key, blob)
	t1 := time.Now()
	if s.tracing.Load() {
		s.tr.record("imagestore", "imagestore.MemStore.Put", t0, t1)
	}
	s.mu.Lock()
	s.putDur += t1.Sub(t0)
	s.writtenB += int64(len(blob))
	s.mu.Unlock()
	return err
}

// reset clears the read counters and returns what they held.
func (s *tracedStore) reset() (time.Duration, int64, []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, b, keys := s.getDur, s.readB, s.fetched
	s.getDur, s.readB, s.fetched = 0, 0, nil
	return d, b, keys
}

// historyJob is one job of the crash history.
type historyJob struct {
	id, client, experiment string
	finished, dispatched   bool
}

// makeHistory generates the crash history from the seed: the job order,
// client names and which pending jobs were dispatched vary; the multiset
// of experiments does not, so every seed does the same work.
func makeHistory(sz restartSize, seed int64) []historyJob {
	rng := rand.New(rand.NewSource(seed))
	var h []historyJob
	for _, id := range sz.finished {
		h = append(h, historyJob{experiment: id, finished: true, dispatched: true})
	}
	for _, id := range sz.pending {
		h = append(h, historyJob{experiment: id})
	}
	rng.Shuffle(len(h), func(i, j int) { h[i], h[j] = h[j], h[i] })
	left := sz.dispatched
	for i := range h {
		h[i].id = fmt.Sprintf("j%06d", i+1)
		h[i].client = fmt.Sprintf("h%d", rng.Intn(4))
	}
	for _, i := range rng.Perm(len(h)) {
		if left > 0 && !h[i].finished {
			h[i].dispatched = true
			left--
		}
	}
	return h
}

// writeHistory journals the history as a crash leaves it: every job
// accepted, finished jobs done with their bytes, the rest cut short.
func writeHistory(dir string, h []historyJob, scale int64, refs map[string][]byte) error {
	jl, err := journal.Open(dir, journal.Options{NoSync: true})
	if err != nil {
		return err
	}
	now := time.Now().UnixMilli()
	for _, j := range h {
		req, err := json.Marshal(service.JobRequest{Experiment: j.experiment, Scale: scale, Client: j.client})
		if err != nil {
			return err
		}
		recs := []journal.Record{{Kind: journal.Accepted, ID: j.id, Client: j.client, Request: req, UnixMilli: now}}
		if j.dispatched {
			recs = append(recs, journal.Record{Kind: journal.Dispatched, ID: j.id, Client: j.client, UnixMilli: now})
		}
		if j.finished {
			recs = append(recs, journal.Record{Kind: journal.Done, ID: j.id, Client: j.client,
				Output: refs[j.experiment], UnixMilli: now})
		}
		for _, r := range recs {
			if err := jl.Append(r); err != nil {
				jl.Close()
				return err
			}
		}
	}
	return jl.Close()
}

// readDir loads every file of a directory.
func readDir(dir string) (map[string][]byte, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	files := map[string][]byte{}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		files[e.Name()] = b
	}
	return files, nil
}

func writeDir(dir string, files map[string][]byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, b := range files {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// acquireImages builds every image the pending jobs fork, encodes it and
// puts it in the store: the set-up a cold daemon start pays.
func acquireImages(ctx context.Context, tr *tracer, sz restartSize, build *cluster.ImageCache,
	st imagestore.Store, m map[string]float64) ([]storeImage, error) {
	o := workload.DefaultOptions()
	o.Scale = sz.scale
	ctx, _ = tr.newTrace(ctx)
	seen := map[string]bool{}
	var out []storeImage
	var buildDur, encDur time.Duration
	for _, j := range experiments.CellsFor(sz.pending) {
		cfg, single := singleConfig(j)
		if !single {
			return nil, fmt.Errorf("%s is not a single-device cell", j)
		}
		b, err := bundleFor(j, o)
		if err != nil {
			return nil, err
		}
		key := imagestore.Fingerprint(cfg.BuildKey(), b.Key, "offloaded")
		if seen[key] {
			continue
		}
		seen[key] = true
		var img *core.Image
		dt, _, err := timed(ctx, tr, "cluster", "cluster.ImageCache.Offloaded", func(ctx context.Context) error {
			var err error
			img, err = build.Offloaded(ctx, cfg, b)
			return err
		})
		if err != nil {
			return nil, err
		}
		buildDur += dt
		var blob []byte
		dt, _, err = timed(ctx, tr, "imagestore", "imagestore.Encode", func(context.Context) error {
			var err error
			blob, err = imagestore.Encode(img)
			return err
		})
		if err != nil {
			return nil, err
		}
		encDur += dt
		if err := st.Put(key, blob); err != nil {
			return nil, err
		}
		out = append(out, storeImage{key: key, cfg: cfg, img: img})
	}
	m["cluster.image_build_s"] = buildDur.Seconds()
	m["cluster.images_built"] = float64(build.Stats().ImageMisses)
	m["imagestore.encode_ms"] = ms(encDur)
	return out, nil
}

// checkDecoded checks that every stored image, decoded, forks a device
// that runs to the same result as the freshly built image's fork.
func checkDecoded(ctx context.Context, tr *tracer, st imagestore.Store, imgs []storeImage, d *direct) error {
	ctx, _ = tr.newTrace(ctx)
	for _, si := range imgs {
		blob, err := st.Get(si.key)
		if err != nil {
			return err
		}
		dec, err := imagestore.Decode(si.cfg, blob)
		if err != nil {
			return fmt.Errorf("decode %s: %w", si.key[:12], err)
		}
		var results [2]*stats.Result
		for i, img := range []*core.Image{dec, si.img} {
			var dev *core.Device
			dt, alloc, err := timed(ctx, tr, "core", "core.Image.Fork", func(context.Context) error {
				var err error
				dev, err = img.Fork(si.cfg)
				return err
			})
			if err != nil {
				return err
			}
			d.fork, d.forkAlloc, d.forks = d.fork+dt, d.forkAlloc+alloc, d.forks+1
			dt, alloc, err = timed(ctx, tr, "core", "core.Device.Run", func(ctx context.Context) error {
				var err error
				results[i], err = dev.Run(ctx)
				return err
			})
			if err != nil {
				return err
			}
			d.run, d.runAlloc, d.runs = d.run+dt, d.runAlloc+alloc, d.runs+1
			d.groups += results[i].Visor.ReadGroups + results[i].Visor.WriteGroups
		}
		if !reflect.DeepEqual(results[0], results[1]) {
			return fmt.Errorf("image %s: store-decoded fork runs to a different result than the built image", si.key[:12])
		}
	}
	return nil
}

// restartOutcome is one timed restart.
type restartOutcome struct {
	wall    time.Duration
	recover time.Duration // service.New: journal replay, compaction, re-enqueue
	lat     []float64     // per recovered job, restart start to result, ms
	failed  int
}

// restartOnce boots a daemon on a copy of the crash journal and the warm
// store, waits for every recovered job, then checks the daemon's state.
func restartOnce(ctx context.Context, tr *tracer, e *env, sz restartSize, k int, files map[string][]byte,
	h []historyJob, refs map[string][]byte, st *tracedStore, rep *report) (restartOutcome, error) {
	dir := filepath.Join(e.dir, fmt.Sprintf("restart%d", k))
	if err := writeDir(dir, files); err != nil {
		return restartOutcome{}, err
	}
	defer os.RemoveAll(dir)
	var pending []historyJob
	for _, j := range h {
		if !j.finished {
			pending = append(pending, j)
		}
	}

	ctx, _ = tr.newTrace(ctx)
	ctx, end := tr.begin(ctx, "bench", "bench.restart")
	var o restartOutcome
	t0 := time.Now()
	_, endOpen := tr.begin(ctx, "journal", "journal.Open")
	jl, err := journal.Open(dir, journal.Options{NoSync: true})
	endOpen()
	if err != nil {
		end()
		return o, err
	}
	defer jl.Close()
	images := cluster.NewImageCache()
	_, endNew := tr.begin(ctx, "service", "service.New")
	t1 := time.Now()
	// One worker: the recovered jobs run one after another, so a restart
	// takes the sum of their work. With two, which jobs happened to
	// overlap on shared cells moved the restart time of one history by up
	// to 15% between runs.
	d, err := startDaemon(service.Config{Workers: 1, Journal: jl, Images: images, Store: st})
	o.recover = time.Since(t1)
	endNew()
	if err != nil {
		end()
		return o, err
	}
	defer d.stop()
	c := newClient(d.url, e.procs)
	o.lat = make([]float64, len(pending))
	outs := make([][]byte, len(pending))
	var next atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	for w := 0; w < e.procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(pending) {
					return
				}
				_, endResult := tr.begin(ctx, "service", "service.Client.Result")
				out, err := c.Result(ctx, pending[i].id)
				endResult()
				if err != nil {
					fmt.Fprintln(stderr, "perfbench: recovered job:", err)
					mu.Lock()
					o.failed++
					mu.Unlock()
					continue
				}
				outs[i] = out
			}
		}()
	}
	wg.Wait()
	o.wall = time.Since(t0)
	end()

	for i, j := range pending {
		if outs[i] != nil {
			rep.check(checkServed(j.id, j.experiment, outs[i], refs[j.experiment]))
		}
	}
	for _, j := range h {
		if !j.finished {
			continue
		}
		out, err := c.Result(ctx, j.id)
		if err != nil {
			return o, fmt.Errorf("finished job %s: %w", j.id, err)
		}
		rep.check(checkServed(j.id, j.experiment, out, refs[j.experiment]))
	}
	list, err := c.List(ctx)
	if err != nil {
		return o, err
	}
	rep.check(checkJobSet(h, list))
	// A recovered job's latency runs from the restart to the moment the
	// daemon finished it; the waiting clients see results in their own
	// order, which would charge a job for the jobs queued before it.
	finished := map[string]time.Time{}
	for _, st := range list {
		if st.FinishedAt != nil {
			finished[st.ID] = *st.FinishedAt
		}
	}
	for i, j := range pending {
		o.lat[i] = ms(finished[j.id].Sub(t0))
	}
	if cs := images.Stats(); cs.StoreMisses != 0 || cs.StoreErrors != 0 {
		rep.check(fmt.Errorf("restart %d: %d image-store misses and %d errors on a warm store", k, cs.StoreMisses, cs.StoreErrors))
	}
	return o, nil
}

// checkJobSet checks that the daemon holds exactly the history's jobs.
func checkJobSet(h []historyJob, list []service.JobStatus) error {
	var want, got []string
	for _, j := range h {
		want = append(want, j.id)
	}
	for _, st := range list {
		got = append(got, st.ID)
	}
	sort.Strings(want)
	sort.Strings(got)
	if !reflect.DeepEqual(want, got) {
		return fmt.Errorf("daemon holds %d jobs after restart, history has %d (%v vs %v)", len(got), len(want), got, want)
	}
	return nil
}

// runRestart measures daemon restarts on a warm image store and a crash
// journal: each restart is timed until every recovered job is done.
func runRestart(ctx context.Context, e *env, sz restartSize) (*report, error) {
	rep := &report{metrics: map[string]float64{}}
	m := rep.metrics
	st := &tracedStore{st: imagestore.NewMemStore(), tr: e.tr}
	st.tracing.Store(e.tr != nil)
	build := cluster.NewImageCache()
	imgs, err := acquireImages(ctx, e.tr, sz, build, st, m)
	if err != nil {
		return nil, err
	}
	m["imagestore.put_ms"] = ms(st.putDur)
	m["imagestore.written_mb"] = float64(st.writtenB) / 1e6
	st.tracing.Store(false)

	refSuite := experiments.NewSuiteWithImages(sz.scale, build)
	refSuite.Workers = e.procs
	refs := map[string][]byte{}
	for _, id := range append(append([]string(nil), sz.finished...), sz.pending...) {
		if refs[id] != nil {
			continue
		}
		sel, err := experiments.Select(id, 1, false, false)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := refSuite.Render(ctx, &buf, sel); err != nil {
			return nil, fmt.Errorf("reference %s: %w", id, err)
		}
		refs[id] = buf.Bytes()
	}
	h := makeHistory(sz, e.seed)
	tmpl := filepath.Join(e.dir, "crash")
	if err := writeHistory(tmpl, h, sz.scale, refs); err != nil {
		return nil, err
	}
	files, err := readDir(tmpl)
	if err != nil {
		return nil, err
	}
	st.reset()
	m["setup_s"] = time.Since(processStart).Seconds()

	var rounds []usage
	var lat [][]float64
	var rates, traced, recov, getMS, readMB, decMS, replayMS, replayN []float64
	for start, k := time.Now(), 0; k < e.minRounds() || time.Since(start) < e.seconds; k++ {
		tr := e.tr
		if k%2 == 0 {
			tr = nil
		}
		st.tracing.Store(tr != nil)
		before := takeSample()
		o, err := restartOnce(ctx, tr, e, sz, k, files, h, refs, st, rep)
		u := since(before)
		u.wall = o.wall
		if err != nil {
			return nil, err
		}
		rep.attempted += int64(len(o.lat))
		rep.failed += int64(o.failed)
		getDur, readB, keys := st.reset()
		if tr == nil {
			rounds = append(rounds, u)
			lat = append(lat, o.lat)
			rates = append(rates, float64(len(o.lat))/o.wall.Seconds())
			continue
		}
		traced = append(traced, o.wall.Seconds())
		recov = append(recov, ms(o.recover))
		getMS = append(getMS, ms(getDur))
		readMB = append(readMB, float64(readB)/1e6)
		var dec time.Duration
		for _, key := range keys {
			for _, si := range imgs {
				if si.key != key {
					continue
				}
				blob, _ := st.st.Get(key)
				t0 := time.Now()
				if _, err := imagestore.Decode(si.cfg, blob); err != nil {
					return nil, err
				}
				dec += time.Since(t0)
			}
		}
		decMS = append(decMS, ms(dec))
		t0 := time.Now()
		rs, err := journal.Replay(tmpl, func(journal.Record) error { return nil })
		if err != nil {
			return nil, err
		}
		replayMS = append(replayMS, ms(time.Since(t0)))
		replayN = append(replayN, float64(rs.Records))
	}
	if len(rounds) == 0 {
		return nil, errors.New("no untraced restart completed")
	}
	var d direct
	rep.check(checkDecoded(ctx, e.tr, st.st, imgs, &d))

	windowMetrics(m, rounds)
	latencyMetrics(m, lat)
	m["jobs_per_s"] = median(rates)
	if e.tr == nil {
		return rep, nil
	}
	m["service.recover_ms"] = median(recov)
	m["imagestore.get_ms"] = median(getMS)
	m["imagestore.read_mb"] = median(readMB)
	m["imagestore.decode_ms"] = median(decMS)
	m["journal.replay_ms"] = median(replayMS)
	m["journal.replay_records"] = median(replayN)
	d.coreMetrics(m)
	m["trace.overhead_s"] = median(traced) - m["pass_s"]
	traceMetrics(m, e.tr)
	return rep, nil
}

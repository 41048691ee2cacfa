package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/journal"
	"repro/internal/service"
)

// serveSize shapes the serve-journal workload.
type serveSize struct {
	scale       int64
	ids         []string // the job mix: one job of each id ...
	perRound    int      // ... this many times per round
	streamEvery int      // every n-th job of a round also streams its bytes
	syncJournal bool     // fsync every journal append (the daemon's default)
}

// singleDeviceIDs are the experiments a default (one-card) job renders.
func singleDeviceIDs() []string {
	var ids []string
	for _, id := range experiments.IDs() {
		if id != "cluster" && id != "topology" && id != "faults" {
			ids = append(ids, id)
		}
	}
	return ids
}

// The job mix is every single-device experiment at the daemon's default
// scale, so after warm-up each job is a render over warm cells.
var defaultServe = serveSize{scale: 16, ids: singleDeviceIDs(), perRound: 300, streamEvery: 10}

// daemon is an in-process abacusd listening on a loopback port.
type daemon struct {
	srv    *service.Server
	hs     *http.Server
	served chan error
	url    string
	once   sync.Once
	err    error
}

func startDaemon(cfg service.Config) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: service.New(cfg), served: make(chan error, 1), url: "http://" + ln.Addr().String()}
	d.hs = &http.Server{Handler: d.srv}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop closes the listener and the daemon and waits for both to finish:
// once it returns, every journal append the daemon makes is done. Later
// calls return the first call's error.
func (d *daemon) stop() error {
	d.once.Do(func() {
		d.err = d.hs.Shutdown(context.Background())
		d.srv.Close()
		if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && d.err == nil {
			d.err = serr
		}
	})
	return d.err
}

// newClient returns a daemon client that opens at most conns connections.
func newClient(url string, conns int) *service.Client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	return &service.Client{BaseURL: url, HTTPClient: &http.Client{Transport: tr}}
}

var doneRE = regexp.MustCompile(`(?m)^abacusd_jobs_total\{event="done"\} (\d+)$`)

// doneJobs reads jobs_total{event="done"} from a /metrics scrape.
func doneJobs(text string) (int64, error) {
	m := doneRE.FindStringSubmatch(text)
	if m == nil {
		return 0, errors.New(`/metrics has no jobs_total{event="done"}`)
	}
	return strconv.ParseInt(m[1], 10, 64)
}

// references renders every id directly through a suite at the given scale.
func references(ctx context.Context, scale int64, ids []string, workers int) (*experiments.Suite, map[string][]byte, error) {
	s := experiments.NewSuite(scale)
	s.Workers = workers
	refs := map[string][]byte{}
	for _, id := range ids {
		if _, ok := refs[id]; ok {
			continue
		}
		sel, err := experiments.Select(id, 1, false, false)
		if err != nil {
			return nil, nil, err
		}
		var buf bytes.Buffer
		if err := s.Render(ctx, &buf, sel); err != nil {
			return nil, nil, fmt.Errorf("reference %s: %w", id, err)
		}
		refs[id] = buf.Bytes()
	}
	return s, refs, nil
}

// jobOutcome is one client round trip.
type jobOutcome struct {
	latency  time.Duration
	submit   time.Duration
	result   time.Duration
	run      time.Duration // dispatch to finish, from the job's status
	failed   bool
	mismatch error
}

// serveJob submits one job, waits for its result and checks the bytes;
// stream also reads the job's byte stream and checks it.
func serveJob(ctx context.Context, tr *tracer, c *service.Client, client, id string, scale int64,
	want []byte, stream bool) jobOutcome {
	ctx, _ = tr.newTrace(ctx)
	ctx, end := tr.begin(ctx, "bench", "bench.job")
	defer end()
	var o jobOutcome
	t0 := time.Now()
	_, endSubmit := tr.begin(ctx, "service", "service.Client.Submit")
	st, err := c.Submit(ctx, service.JobRequest{Experiment: id, Scale: scale, Client: client})
	endSubmit()
	o.submit = time.Since(t0)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: submit:", err)
		o.failed = true
		return o
	}
	t1 := time.Now()
	_, endResult := tr.begin(ctx, "service", "service.Client.Result")
	out, err := c.Result(ctx, st.ID)
	endResult()
	o.result = time.Since(t1)
	o.latency = time.Since(t0)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: result:", err)
		o.failed = true
		return o
	}
	o.mismatch = checkServed(st.ID, id, out, want)
	if stream && o.mismatch == nil {
		var sb bytes.Buffer
		_, endStream := tr.begin(ctx, "service", "service.Client.Stream")
		state, err := c.Stream(ctx, st.ID, &sb)
		endStream()
		switch {
		case err != nil:
			fmt.Fprintln(stderr, "perfbench: stream:", err)
			o.failed = true
		case state != service.StateDone || !bytes.Equal(sb.Bytes(), out):
			o.mismatch = fmt.Errorf("job %s (%s): streamed %d bytes in state %s, result has %d",
				st.ID, id, sb.Len(), state, len(out))
		}
	}
	if tr != nil {
		_, endStatus := tr.begin(ctx, "service", "service.Client.Status")
		st, err := c.Status(ctx, st.ID)
		endStatus()
		if err == nil && st.StartedAt != nil && st.FinishedAt != nil {
			o.run = st.FinishedAt.Sub(*st.StartedAt)
		}
	}
	return o
}

// checkServed checks a served result against the direct render.
func checkServed(jobID, id string, got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("job %s (%s): %d result bytes differ from the direct render's %d", jobID, id, len(got), len(want))
	}
	return nil
}

// closedLoop runs the jobs of order through procs clients, each sending
// its next job only once the previous result is back.
func closedLoop(ctx context.Context, tr *tracer, c *service.Client, procs int, order []string, scale int64,
	refs map[string][]byte, streamEvery int) []jobOutcome {
	outs := make([]jobOutcome, len(order))
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < procs; k++ {
		wg.Add(1)
		go func(client string) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(order) || ctx.Err() != nil {
					return
				}
				outs[i] = serveJob(ctx, tr, c, client, order[i], scale, refs[order[i]], i%streamEvery == 0)
			}
		}(fmt.Sprintf("c%d", k))
	}
	wg.Wait()
	return outs
}

// appendTimer times journal appends through the journal's public hooks:
// appends are serialized, so the n-th before-hook pairs with after(n).
type appendTimer struct {
	tr     *tracer
	mu     sync.Mutex
	starts []time.Time
	base   int64 // appends before the timer was installed
	bytes  int64
	dur    []float64 // µs
}

func (a *appendTimer) install(jl *journal.Journal) {
	a.mu.Lock()
	a.base, a.starts = jl.Stats().Appends, a.starts[:0]
	a.mu.Unlock()
	jl.SetHooks(func(frame []byte) error {
		a.mu.Lock()
		a.starts = append(a.starts, time.Now())
		a.bytes += int64(len(frame))
		a.mu.Unlock()
		return nil
	}, func(n int64) {
		a.mu.Lock()
		defer a.mu.Unlock()
		if i := int(n - a.base - 1); i >= 0 && i < len(a.starts) {
			start, end := a.starts[i], time.Now()
			a.dur = append(a.dur, float64(end.Sub(start))/1e3)
			a.tr.record("journal", "journal.Append", start, end)
		}
	})
}

// runServe measures journaled serving: a closed loop of procs clients
// against an in-process daemon whose journal is on, over warm renders.
func runServe(ctx context.Context, e *env, sz serveSize) (*report, error) {
	refSuite, refs, err := references(ctx, sz.scale, sz.ids, e.procs)
	if err != nil {
		return nil, err
	}
	jl, err := journal.Open(e.dir+"/journal", journal.Options{NoSync: !sz.syncJournal})
	if err != nil {
		return nil, err
	}
	defer jl.Close()
	d, err := startDaemon(service.Config{Workers: e.procs, Journal: jl})
	if err != nil {
		return nil, err
	}
	defer d.stop()
	c := newClient(d.url, e.procs)
	rep := &report{metrics: map[string]float64{}}
	var served int64
	count := func(outs []jobOutcome) {
		for _, o := range outs {
			rep.attempted++
			if o.failed {
				rep.failed++
				continue
			}
			served++
			rep.check(o.mismatch)
		}
	}
	// Warm-up: one job per id fills the daemon's cells; every job after it
	// is a warm render.
	count(closedLoop(ctx, nil, c, e.procs, sz.ids, sz.scale, refs, 1))
	rep.metrics["setup_s"] = time.Since(processStart).Seconds()

	rng := rand.New(rand.NewSource(e.seed))
	var round []string
	for k := 0; k < sz.perRound; k++ {
		round = append(round, sz.ids...)
	}
	var rounds []usage
	var lat [][]float64
	var rates, traced []float64
	var submit, result, run []float64
	timer := &appendTimer{tr: e.tr}
	j0 := jl.Stats()
	for start, n := time.Now(), 0; n < e.minRounds() || time.Since(start) < e.seconds; n++ {
		order := append([]string(nil), round...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		tr := e.tr
		if n%2 == 0 {
			tr = nil
		}
		if tr != nil {
			timer.install(jl)
		}
		before := takeSample()
		outs := closedLoop(ctx, tr, c, e.procs, order, sz.scale, refs, sz.streamEvery)
		u := since(before)
		jl.SetHooks(nil, nil)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		count(outs)
		if tr != nil {
			traced = append(traced, u.wall.Seconds())
			for _, o := range outs {
				submit = append(submit, ms(o.submit))
				result = append(result, ms(o.result))
				run = append(run, ms(o.run))
			}
			continue
		}
		rounds = append(rounds, u)
		rates = append(rates, float64(len(order))/u.wall.Seconds())
		var rl []float64
		for _, o := range outs {
			if !o.failed {
				rl = append(rl, ms(o.latency))
			}
		}
		lat = append(lat, rl)
	}
	text, err := c.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	done, err := doneJobs(text)
	if err != nil {
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, err
	}
	j1 := jl.Stats()
	if done != served {
		rep.check(fmt.Errorf("clients completed %d jobs, /metrics counts %d done", served, done))
	}

	m := rep.metrics
	windowMetrics(m, rounds)
	latencyMetrics(m, lat)
	m["jobs_per_s"] = median(rates)
	if e.tr == nil {
		return rep, nil
	}
	jobs := float64(served - int64(len(sz.ids)))
	m["service.submit_ms"] = median(submit)
	m["service.result_ms"] = median(result)
	m["service.job_run_ms"] = median(run)
	m["journal.appends_per_job"] = float64(j1.Appends-j0.Appends) / jobs
	m["journal.fsyncs_per_job"] = float64(j1.Fsyncs-j0.Fsyncs) / jobs
	m["journal.compactions"] = float64(j1.Compactions - j0.Compactions)
	m["journal.bytes_per_job"] = float64(timer.bytes) / float64(len(submit))
	m["journal.append_us"] = median(timer.dur)
	m["trace.overhead_s"] = median(traced) - m["pass_s"]
	var warm []float64
	for _, id := range sz.ids {
		sel, err := experiments.Select(id, 1, false, false)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		t0 := time.Now()
		if err := refSuite.Render(ctx, &buf, sel); err != nil {
			return nil, err
		}
		warm = append(warm, ms(time.Since(t0)))
	}
	m["experiments.render_warm_ms"] = median(warm)
	traceMetrics(m, e.tr)
	return rep, nil
}

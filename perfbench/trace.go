package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
// Spans are recorded from outside, around the call, so a span's self time
// is the time the call took minus the part of it its child spans cover.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root span
	Trace  int64  `json:"trace"`  // one trace per pass, restart or job
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was made
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced run calls the same code.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

type spanKey struct{}

// spanRef is the current span carried in a context.
type spanRef struct{ trace, id int64 }

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func noop() {}

// newTrace returns a context whose spans share a fresh trace id.
func (t *tracer) newTrace(ctx context.Context) (context.Context, int64) {
	if t == nil {
		return ctx, 0
	}
	id := t.ids.Add(1)
	return context.WithValue(ctx, spanKey{}, spanRef{trace: id}), id
}

// begin opens a span under the context's current span and returns the
// context to pass to child calls and the function that closes the span.
func (t *tracer) begin(ctx context.Context, layer, name string) (context.Context, func()) {
	if t == nil {
		return ctx, noop
	}
	parent, _ := ctx.Value(spanKey{}).(spanRef)
	id := t.ids.Add(1)
	trace := parent.trace
	if trace == 0 {
		trace = id
	}
	start := time.Since(t.t0)
	return context.WithValue(ctx, spanKey{}, spanRef{trace: trace, id: id}), func() {
		end := time.Since(t.t0)
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: id, Parent: parent.id, Trace: trace,
			Layer: layer, Name: name, Start: int64(start), End: int64(end)})
		t.mu.Unlock()
	}
}

// record adds a root span the benchmark observed rather than opened,
// such as a journal append seen through the journal's hooks.
func (t *tracer) record(layer, name string, start, end time.Time) {
	if t == nil {
		return
	}
	id := t.ids.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Trace: id, Layer: layer, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each layer's self time: the summed duration of its
// spans less the part of each span that its children cover. Children of
// one span may run concurrently, so coverage is the union of their
// intervals, clipped to the parent.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		self := (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
		out[s.Layer] += time.Duration(self)
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi).
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	ivs = append([][2]int64(nil), ivs...)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

package main

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"seprivgemb/internal/spec"
)

// bench carries the state one run shares across its phases.
type bench struct {
	opts   options
	dir    string // per-run scratch directory
	log    io.Writer
	layers *layerSums // nil unless tracing
}

// tracer records spans of the in-process replay. Spans nest through a
// stack (the replay is one goroutine); every span knows its parent, so a
// layer's self time is its duration minus what its children cover. A nil
// *tracer records nothing, which gives the untraced replay the tracing
// overhead is measured against.
type tracer struct {
	spans []span
	stack []int
	count map[string]float64 // counts recorded at layer boundaries
}

type span struct {
	name       string
	parent     int // index into spans, -1 for a root
	start, end time.Time
}

func newTracer() *tracer { return &tracer{count: map[string]float64{}} }

func noop() {}

// begin opens a span under the innermost open one and returns its closer.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return noop
	}
	t.spans = append(t.spans, span{name: name, parent: t.parent(), start: time.Now()})
	idx := len(t.spans) - 1
	t.stack = append(t.stack, idx)
	return func() {
		t.spans[idx].end = time.Now()
		t.stack = t.stack[:len(t.stack)-1]
	}
}

func (t *tracer) parent() int {
	if n := len(t.stack); n > 0 {
		return t.stack[n-1]
	}
	return -1
}

// child records an already-finished span under the innermost open one —
// for work whose interval is observed from inside a call (the lazy
// proximity fill inside training).
func (t *tracer) child(name string, start, end time.Time) {
	if t != nil {
		t.spans = append(t.spans, span{name: name, parent: t.parent(), start: start, end: end})
	}
}

// childDuration records a child of the innermost open span whose length
// is known but whose interval is not: the per-stage times core reports
// in Result.Stages.
func (t *tracer) childDuration(name string, d time.Duration) {
	now := time.Now()
	t.child(name, now.Add(-d), now)
}

func (t *tracer) add(name string, v float64) {
	if t != nil {
		t.count[name] += v
	}
}

// selfMs sums each span name's self time in milliseconds.
func (t *tracer) selfMs() map[string]float64 {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end.Sub(s.start)
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		out[s.name] += float64((s.end.Sub(s.start) - child[i]).Nanoseconds()) / 1e6
	}
	return out
}

// layerSums accumulates the figures observed at the HTTP boundary of the
// server during a traced run. Safe for concurrent use.
type layerSums struct {
	mu       sync.Mutex
	submitMs float64
	events   int
	jobs     map[string]bool // job IDs seen, in order
	order    []string
	windowMs float64
	winBytes float64
	queueMs  float64
	runMs    float64
	lagMs    float64
}

func newLayerSums() *layerSums { return &layerSums{jobs: map[string]bool{}} }

// noteJob records one streamed job: its submission time, its stream, and
// the lag from the done event to the result first being served.
func (b *bench) noteJob(id string, submit time.Duration, sr streamResult, lag time.Duration) {
	if b.layers == nil {
		return
	}
	l := b.layers
	l.mu.Lock()
	defer l.mu.Unlock()
	l.submitMs += float64(submit.Nanoseconds()) / 1e6
	l.events += sr.events
	l.lagMs += float64(lag.Nanoseconds()) / 1e6
	l.addJobLocked(id)
}

// noteSubmit records a submission that is not followed over a stream (a
// sweep) and the cell jobs it fanned out to.
func (b *bench) noteSubmit(submit time.Duration, jobIDs []string) {
	if b.layers == nil {
		return
	}
	l := b.layers
	l.mu.Lock()
	defer l.mu.Unlock()
	l.submitMs += float64(submit.Nanoseconds()) / 1e6
	for _, id := range jobIDs {
		l.addJobLocked(id)
	}
}

func (l *layerSums) addJobLocked(id string) {
	if !l.jobs[id] {
		l.order = append(l.order, id)
	}
	l.jobs[id] = true
}

// noteWindow records one row-window read.
func (b *bench) noteWindow(d time.Duration, bytes int) {
	if b.layers == nil {
		return
	}
	b.layers.mu.Lock()
	b.layers.windowMs += float64(d.Nanoseconds()) / 1e6
	b.layers.winBytes += float64(bytes)
	b.layers.mu.Unlock()
}

// collectJobTimings reads the queue and run times the server reports for
// every job the run created. It runs after the timed phase, so the extra
// requests do not perturb it.
func (b *bench) collectJobTimings(ctx context.Context, srv *server) error {
	l := b.layers
	for _, id := range l.order {
		var jr spec.JobResponse
		if _, err := srv.getJSON(ctx, "/v1/jobs/"+id, &jr); err != nil {
			return err
		}
		if jr.Timing == nil {
			return fmt.Errorf("job %s reports no timing", id)
		}
		l.queueMs += jr.Timing.QueueMs
		l.runMs += jr.Timing.RunMs
	}
	return nil
}

// perLayer lists every per-layer metric with its unit, in the order
// BENCHMARK.json declares them.
var perLayer = []struct{ name, unit string }{
	{"proximity.materialize_ms", "ms"},
	{"proximity.fill_ms", "ms"},
	{"proximity.entries", "count"},
	{"datasets.generate_ms", "ms"},
	{"graph.inline_build_ms", "ms"},
	{"spec.decode_ms", "ms"},
	{"core.train_ms", "ms"},
	{"core.subgraphs_ms", "ms"},
	{"core.gradients_ms", "ms"},
	{"core.reduce_ms", "ms"},
	{"core.update_ms", "ms"},
	{"core.epochs", "count"},
	{"eval.strucequ_ms", "ms"},
	{"eval.strucequ_pairs", "count"},
	{"eval.linkauc_ms", "ms"},
	{"sweep.expand_ms", "ms"},
	{"sweep.cells", "count"},
	{"experiments.memo_graphs", "count"},
	{"service.queue_ms", "ms"},
	{"service.run_ms", "ms"},
	{"service.store_save_ms", "ms"},
	{"service.artifact_bytes", "bytes"},
	{"service.load_rows_ms", "ms"},
	{"server.submit_ms", "ms"},
	{"server.window_ms", "ms"},
	{"server.window_bytes", "bytes"},
	{"stream.events", "count"},
	{"stream.done_lag_ms", "ms"},
}

// layerMetrics assembles the traced result: span self times and counts
// from the replay, HTTP-boundary figures from the served run.
func layerMetrics(t *tracer, l *layerSums) map[string]metric {
	vals := t.selfMs()
	for k, v := range t.count {
		vals[k] += v
	}
	vals["service.queue_ms"] = l.queueMs
	vals["service.run_ms"] = l.runMs
	vals["server.submit_ms"] = l.submitMs
	vals["server.window_ms"] = l.windowMs
	vals["server.window_bytes"] = l.winBytes
	vals["stream.events"] = float64(l.events)
	vals["stream.done_lag_ms"] = l.lagMs
	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = metric{vals[m.name], m.unit}
	}
	return out
}

func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(b.log, "perfbench: "+format+"\n", args...)
}

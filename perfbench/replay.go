package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"seprivgemb/internal/core"
	"seprivgemb/internal/experiments"
	"seprivgemb/internal/graph"
	"seprivgemb/internal/methods"
	"seprivgemb/internal/proximity"
	"seprivgemb/internal/service"
	"seprivgemb/internal/spec"
)

// replayer repeats a workload's operations in process, calling each
// layer's exported functions in the order the server does, with a span
// around every call (none when tr is nil). It keeps a memo and an
// artifact store of its own, like a fresh server.
type replayer struct {
	tr       *tracer
	memo     *experiments.Memo
	store    *service.Store
	storeDir string
	workers  int
	memoG    map[*graph.Graph]bool // graphs the memo produced
	counted  map[proximity.Proximity]bool
	keys     []experiments.ResultKey // of the jobs replayed so far, in order
}

func newReplayer(b *bench, tr *tracer) (*replayer, error) {
	dir, err := os.MkdirTemp(b.dir, "replay-")
	if err != nil {
		return nil, err
	}
	st, err := service.NewStore(dir)
	if err != nil {
		return nil, err
	}
	return &replayer{
		tr:       tr,
		memo:     experiments.NewMemo(),
		store:    st,
		storeDir: dir,
		workers:  b.opts.workers,
		memoG:    map[*graph.Graph]bool{},
		counted:  map[proximity.Proximity]bool{},
	}, nil
}

// finish records the end-of-replay gauges.
func (r *replayer) finish() {
	r.tr.add("experiments.memo_graphs", float64(r.memo.GraphCacheLen()))
}

// job replays one job submission: decode, resolve the graph, build or
// look up the proximity, train, and persist the artifact.
func (r *replayer) job(ctx context.Context, body []byte) (experiments.ResultKey, error) {
	defer r.tr.begin("job")()
	end := r.tr.begin("spec.decode_ms")
	sp, err := spec.Decode(bytes.NewReader(body))
	end()
	if err != nil {
		return experiments.ResultKey{}, err
	}
	g, err := r.graph(sp.Graph)
	if err != nil {
		return experiments.ResultKey{}, err
	}
	key, _, err := r.train(ctx, *sp, g)
	if err == nil {
		r.keys = append(r.keys, key)
	}
	return key, err
}

func jobOp(body []byte) replayOp {
	return func(ctx context.Context, r *replayer) error {
		_, err := r.job(ctx, body)
		return err
	}
}

// replayTimed replays ops twice, on an untraced replayer (no spans, no
// timing wrapper around the lazy proximity) and on one traced by tr,
// interleaved operation by operation with the order alternating, so that
// both see the same drift in the host's speed. It returns the wall
// seconds each spent in the operations.
func replayTimed(ctx context.Context, b *bench, ops []replayOp, tr *tracer) (untraced, traced float64, err error) {
	ru, err := newReplayer(b, nil)
	if err != nil {
		return 0, 0, err
	}
	rt, err := newReplayer(b, tr)
	if err != nil {
		return 0, 0, err
	}
	for i, op := range ops {
		pair := [2]*replayer{ru, rt}
		if i%2 == 1 {
			pair[0], pair[1] = rt, ru
		}
		for _, r := range pair {
			start := time.Now()
			if err := op(ctx, r); err != nil {
				return 0, 0, fmt.Errorf("replay: %w", err)
			}
			secs := time.Since(start).Seconds()
			if r == ru {
				untraced += secs
			} else {
				traced += secs
			}
		}
	}
	rt.finish()
	return untraced, traced, nil
}

// graph resolves a graph source as the server does: dataset graphs
// through the memo, inline edge lists through the graph builder.
func (r *replayer) graph(src spec.GraphSource) (*graph.Graph, error) {
	switch {
	case src.Dataset != nil:
		defer r.tr.begin("datasets.generate_ms")()
		d := src.Dataset
		g, err := r.memo.Dataset(d.Name, d.Scale, d.Seed)
		if err == nil {
			r.memoG[g] = true
		}
		return g, err
	case src.Inline != nil:
		defer r.tr.begin("graph.inline_build_ms")()
		bld := graph.NewBuilder(src.Inline.Nodes)
		for _, e := range src.Inline.Edges {
			if err := bld.AddEdge(e[0], e[1]); err != nil {
				return nil, err
			}
		}
		return bld.Build(), nil
	}
	return nil, fmt.Errorf("replay: unsupported graph source")
}

// train resolves the proximity, trains, and saves the artifact. Memo
// graphs get the memo's materialized matrix (built once per graph and
// measure); other graphs train on the lazy measure, whose per-edge fill
// runs inside core's set-up and, when traced, is timed from inside its At
// calls.
func (r *replayer) train(ctx context.Context, sp spec.JobSpec, g *graph.Graph) (experiments.ResultKey, *core.Result, error) {
	var key experiments.ResultKey
	cfg, err := sp.Config.CoreConfig()
	if err != nil {
		return key, nil, err
	}
	if cfg.BatchSize > g.NumEdges() {
		cfg.BatchSize = g.NumEdges()
	}
	cfg.Workers = r.workers
	var prox proximity.Proximity
	var fill *fillTimer
	if r.memoG[g] {
		end := r.tr.begin("proximity.materialize_ms")
		prox, err = r.memo.Proximity(g, sp.Proximity, r.workers)
		end()
		if err != nil {
			return key, nil, err
		}
		if sparse, ok := prox.(*proximity.Sparse); ok && r.tr != nil && !r.counted[prox] {
			r.counted[prox] = true
			for i := 0; i < sparse.NumNodes(); i++ {
				r.tr.add("proximity.entries", float64(len(sparse.Row(i))))
			}
		}
	} else {
		if prox, err = proximity.ByName(sp.Proximity, g); err != nil {
			return key, nil, err
		}
		if r.tr != nil {
			fill = &fillTimer{Proximity: prox}
			fill.first.Store(-1)
			prox = fill
		}
	}
	mname, err := methods.Canonical(sp.Method)
	if err != nil {
		return key, nil, err
	}
	key = experiments.ResultKey{Method: mname, Graph: g.Fingerprint(), Proximity: prox.Name(), Config: cfg.Hash()}

	// The lazy fill and core's four stages are children of the training
	// span, whose self time is what training spends outside them. core's
	// set-up stage includes the lazy fill; the fill is reported on its
	// own, so the stage's self time excludes it.
	end := r.tr.begin("core.train_ms")
	res, err := core.TrainContext(ctx, g, prox, cfg, core.Hooks{})
	if err != nil {
		end()
		return key, nil, err
	}
	var filled time.Duration
	if fill != nil && fill.first.Load() >= 0 {
		start, stop := time.Unix(0, fill.first.Load()), time.Unix(0, fill.last.Load())
		r.tr.child("proximity.fill_ms", start, stop)
		filled = stop.Sub(start)
	}
	r.tr.childDuration("core.subgraphs_ms", res.Stages.Subgraphs-filled)
	r.tr.childDuration("core.gradients_ms", res.Stages.Gradients)
	r.tr.childDuration("core.reduce_ms", res.Stages.Reduce)
	r.tr.childDuration("core.update_ms", res.Stages.Update)
	end()
	r.tr.add("core.epochs", float64(res.Epochs))

	if r.tr == nil {
		return key, res, r.store.Save(key, res)
	}
	before := dirBytes(r.storeDir)
	end = r.tr.begin("service.store_save_ms")
	err = r.store.Save(key, res)
	end()
	if err != nil {
		return key, nil, err
	}
	r.tr.add("service.artifact_bytes", float64(dirBytes(r.storeDir)-before))
	return key, res, nil
}

// fillTimer wraps a lazy proximity and records the interval from the
// first At call's start to the last one's end — the per-edge fill, which
// core runs across its workers before the first epoch.
type fillTimer struct {
	proximity.Proximity
	first, last atomic.Int64 // unix nanoseconds; first is -1 until a call
}

func (f *fillTimer) At(i, j int) float64 {
	t0 := time.Now().UnixNano()
	f.first.CompareAndSwap(-1, t0)
	v := f.Proximity.At(i, j)
	t1 := time.Now().UnixNano()
	for {
		cur := f.last.Load()
		if t1 <= cur || f.last.CompareAndSwap(cur, t1) {
			break
		}
	}
	return v
}

// dirBytes sums the sizes of the regular files directly in dir.
func dirBytes(dir string) int64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range ents {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}

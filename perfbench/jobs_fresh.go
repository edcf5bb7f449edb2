package main

import (
	"context"
	"time"

	"seprivgemb/internal/graph"
	"seprivgemb/internal/proximity"
	"seprivgemb/internal/spec"
)

// jobsFresh publishes embeddings for graphs the server has never seen:
// one closed-loop client submits each job and follows its event stream
// to the end before submitting the next. Each pass runs five jobs, each
// on a fresh graph: chameleon-class dataset sources under four structure
// preferences (the memo builds and caches their full proximity matrices)
// and one ppi-class graph sent inline under katz (the lazy per-edge
// proximity path).
type jobsFresh struct {
	warm   jobInput
	inputs []jobInput // timed jobs, in submission order
	ids    []string   // their job IDs, once run
}

// freshKinds are the dataset-sourced job kinds of one pass; the inline
// katz job completes it.
var freshKinds = [...]string{"deepwalk", "degree", "katz", "pagerank"}

const jobsPerPass = len(freshKinds) + 1

func newJobsFresh(opts options) (*jobsFresh, error) {
	z, w := opts.size, opts.workers
	jf := &jobsFresh{
		warm: newJob(datasetSource("chameleon", z.warmScale, derive(opts.seed, 1)), "pagerank", z.jobEpochs, w, derive(opts.seed, 2)),
	}
	for p := 0; p < passes(opts.seconds, z.jobPassSecs); p++ {
		for k, prox := range freshKinds {
			src := datasetSource("chameleon", z.chamScale, derive(opts.seed, 3, uint64(p), uint64(k)))
			jf.inputs = append(jf.inputs, newJob(src, prox, z.jobEpochs, w, derive(opts.seed, 4, uint64(p), uint64(k))))
		}
		src, err := inlineSource("ppi", z.inlineScale, derive(opts.seed, 5, uint64(p)))
		if err != nil {
			return nil, err
		}
		jf.inputs = append(jf.inputs, newJob(src, "katz", z.jobEpochs, w, derive(opts.seed, 6, uint64(p))))
	}
	return jf, nil
}

// setup warms a fresh server with one pagerank job on a graph of its own.
func (jf *jobsFresh) setup(ctx context.Context, b *bench, srv *server) error {
	_, _, err := b.runJob(ctx, srv, jf.warm.body)
	return err
}

// timed runs the passes. The operation is a pass: the median of ten
// single jobs of five kinds falls between kinds and jumps with them,
// while a pass latency is one figure per pass of the same mix.
func (jf *jobsFresh) timed(ctx context.Context, b *bench, srv *server) (phase, error) {
	var ph phase
	jf.ids = jf.ids[:0]
	for p := 0; p < len(jf.inputs)/jobsPerPass; p++ {
		ph.ops++
		start, ok := time.Now(), true
		for _, in := range jf.inputs[p*jobsPerPass : (p+1)*jobsPerPass] {
			id, d, err := b.runJob(ctx, srv, in.body)
			if err != nil {
				b.logf("job failed: %v", err)
				id, ok = "", false
			} else {
				b.logf("job %s %.0f ms", id, float64(d.Nanoseconds())/1e6)
			}
			jf.ids = append(jf.ids, id)
		}
		if !ok {
			ph.failed++
			continue
		}
		ph.latencies = append(ph.latencies, float64(time.Since(start).Nanoseconds())/1e6)
	}
	return ph, nil
}

// check verifies the privacy spend of every job, the Katz values of
// every inline graph against dense matrix powers, and that a resubmitted
// spec starts no new training.
func (jf *jobsFresh) check(ctx context.Context, b *bench, srv *server) error {
	var ids []string
	var ins []jobInput
	for i, id := range jf.ids {
		if id != "" {
			ids, ins = append(ids, id), append(ins, jf.inputs[i])
		}
	}
	if err := checkJobs(ctx, srv, ids); err != nil {
		return err
	}
	for _, in := range ins {
		if in.inline == nil {
			continue
		}
		if err := checkInlineKatz(in.inline); err != nil {
			return err
		}
	}
	if len(ids) == 0 {
		return failf("no job finished")
	}
	return checkResubmit(ctx, srv, ids[0], ins[0])
}

// checkInlineKatz rebuilds an inline graph the way the server does and
// compares every Katz row the lazy path evaluates against the dense
// reference Σ β^l A^l.
func checkInlineKatz(in *spec.InlineSource) error {
	bld := graph.NewBuilder(in.Nodes)
	for _, e := range in.Edges {
		if err := bld.AddEdge(e[0], e[1]); err != nil {
			return err
		}
	}
	prox, err := proximity.ByName("katz", bld.Build())
	if err != nil {
		return err
	}
	return checkKatzRows(prox, katzReference(in.Nodes, in.Edges, katzBeta, katzMaxLen))
}

// The Katz measure the server serves under the name "katz": damping β and
// walk-length truncation L.
const (
	katzBeta   = 0.05
	katzMaxLen = 6
)

func (jf *jobsFresh) replayOps() []replayOp {
	var ops []replayOp
	for _, in := range append([]jobInput{jf.warm}, jf.inputs...) {
		ops = append(ops, jobOp(in.body))
	}
	return ops
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"seprivgemb/internal/datasets"
	"seprivgemb/internal/eval"
	"seprivgemb/internal/graph"
	"seprivgemb/internal/spec"
	"seprivgemb/internal/sweep"
	"seprivgemb/internal/xrand"
)

// sweepTable reproduces one paper-table grid on ppi with deepwalk:
// sepriv × two ε × two seeds, submitted once as an exact-StrucEqu sweep
// and once as a link-prediction sweep. Set-up runs one warm-up job on the
// same graph, which materializes its proximity, so the timed phase builds
// no full proximity: StrucEqu cells are dominated by the O(|V|²)
// evaluation, linkauc cells by training plus the lazy proximity fill on
// the inline split graph.
type sweepTable struct {
	src    spec.GraphSource
	warm   jobInput
	sweeps []sweepInput
	final  []*spec.SweepResponse // per sweep, once run
	seed   uint64
	page   int
	warmID string
}

type sweepInput struct {
	body []byte
}

// sweepEpsilons is the ε axis of the grid.
var sweepEpsilons = []float64{1, 3.5}

func newSweepTable(opts options) (*sweepTable, error) {
	z, w := opts.size, opts.workers
	st := &sweepTable{
		src:  datasetSource("ppi", z.ppiScale, derive(opts.seed, 1)),
		seed: opts.seed,
		page: z.page,
	}
	st.warm = newJob(st.src, "deepwalk", z.warmEpochs, w, derive(opts.seed, 2))
	for p := 0; p < passes(opts.seconds, z.sweepPassSecs); p++ {
		for k, metric := range []string{spec.MetricStrucEqu, spec.MetricLinkAUC} {
			sp := spec.SweepSpec{
				Graphs:    []spec.GraphSource{st.src},
				Methods:   []string{"sepriv"},
				Epsilons:  sweepEpsilons,
				Seeds:     []uint64{derive(opts.seed, 3, uint64(p), uint64(k), 0), derive(opts.seed, 3, uint64(p), uint64(k), 1)},
				Proximity: "deepwalk",
				Config:    spec.ConfigSpec{MaxEpochs: z.sweepEpochs, Delta: jobDelta, Workers: w},
				Eval:      spec.EvalSpec{Metric: metric},
			}
			body, err := json.Marshal(sp)
			if err != nil {
				return nil, err
			}
			st.sweeps = append(st.sweeps, sweepInput{body: body})
		}
	}
	return st, nil
}

func (st *sweepTable) setup(ctx context.Context, b *bench, srv *server) error {
	id, _, err := b.runJob(ctx, srv, st.warm.body)
	st.warmID = id
	return err
}

// runSweep submits one sweep and polls it to its end.
func (b *bench) runSweep(ctx context.Context, srv *server, body []byte) (*spec.SweepResponse, time.Duration, error) {
	start := time.Now()
	var sr spec.SweepResponse
	submit, err := srv.postJSON(ctx, "/v1/sweeps", body, &sr)
	if err != nil {
		return nil, 0, err
	}
	for sr.Status != "done" && sr.Status != "canceled" {
		select {
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
		if _, err := srv.getJSON(ctx, "/v1/sweeps/"+sr.ID, &sr); err != nil {
			return nil, 0, err
		}
	}
	elapsed := time.Since(start)
	ids := make([]string, 0, len(sr.Cells))
	for _, c := range sr.Cells {
		if c.JobID != "" {
			ids = append(ids, c.JobID)
		}
	}
	b.noteSubmit(submit, ids)
	return &sr, elapsed, nil
}

func (st *sweepTable) timed(ctx context.Context, b *bench, srv *server) (phase, error) {
	var ph phase
	st.final = st.final[:0]
	for _, in := range st.sweeps {
		ph.ops++
		sr, d, err := b.runSweep(ctx, srv, in.body)
		if err == nil && (sr.Status != "done" || sr.Counts.Done != len(sr.Cells)) {
			err = fmt.Errorf("sweep %s ended %s with counts %+v", sr.ID, sr.Status, sr.Counts)
		}
		if err != nil {
			b.logf("sweep failed: %v", err)
			ph.failed++
			st.final = append(st.final, nil)
			continue
		}
		st.final = append(st.final, sr)
		ph.latencies = append(ph.latencies, float64(d.Nanoseconds())/1e6)
	}
	return ph, nil
}

// check verifies every cell's privacy spend, recomputes StrucEqu and AUC
// for one sampled cell of each metric from the cell's fetched rows, and
// resubmits a finished sweep, which must start no new training.
func (st *sweepTable) check(ctx context.Context, b *bench, srv *server) error {
	if err := checkJobs(ctx, srv, []string{st.warmID}); err != nil {
		return err
	}
	g, err := datasets.Generate(st.src.Dataset.Name, st.src.Dataset.Scale, st.src.Dataset.Seed)
	if err != nil {
		return err
	}
	checked := map[string]bool{}
	for i, sr := range st.final {
		if sr == nil {
			continue
		}
		for _, c := range sr.Cells {
			rr, err := srv.resultMeta(ctx, c.JobID)
			if err != nil {
				return err
			}
			if err := checkPrivacy(c.JobID, rr.EpsilonSpent, rr.DeltaSpent, c.Epsilon, jobDelta); err != nil {
				return err
			}
			if c.Metric == nil {
				return failf("sweep %s cell %s has no metric", sr.ID, c.JobID)
			}
		}
		if checked[sr.Metric] {
			continue
		}
		checked[sr.Metric] = true
		c := sr.Cells[int(derive(st.seed, 7, uint64(i))%uint64(len(sr.Cells)))]
		rows, _, err := srv.exportRows(ctx, c.JobID, st.page)
		if err != nil {
			return err
		}
		if err := checkCellMetric(sr.Metric, g, c, rows); err != nil {
			return err
		}
	}
	if len(checked) == 0 {
		return failf("no sweep finished")
	}
	// Resubmission lands on the finished sweep: same ID, every cell done,
	// none queued or running again.
	var again spec.SweepResponse
	if _, err := srv.postJSON(ctx, "/v1/sweeps", st.sweeps[0].body, &again); err != nil {
		return err
	}
	first := st.final[0]
	if first != nil && (again.ID != first.ID || again.Status != "done" || again.Counts.Done != len(first.Cells)) {
		return failf("resubmitted sweep %s answered %s in status %q with counts %+v", first.ID, again.ID, again.Status, again.Counts)
	}
	return nil
}

// checkCellMetric recomputes one cell's metric from its embedding rows.
// The linkauc held-out pairs come from the same deterministic split the
// sweep draws from the cell seed; the scores and the AUC are computed
// here.
func checkCellMetric(metric string, g *graph.Graph, c spec.SweepCellInfo, rows [][]float64) error {
	var want float64
	switch metric {
	case spec.MetricStrucEqu:
		edges := make([][2]int, g.NumEdges())
		for i, e := range g.Edges() {
			edges[i] = [2]int{int(e.U), int(e.V)}
		}
		want = strucEquReference(g.NumNodes(), edges, rows)
	case spec.MetricLinkAUC:
		split, err := eval.SplitLinkPrediction(g, spec.EvalSpec{}.TestFrac(), xrand.New(c.Seed^0x5eed))
		if err != nil {
			return err
		}
		score := func(es []graph.Edge) []float64 {
			out := make([]float64, len(es))
			for i, e := range es {
				out[i] = dot(rows[e.U], rows[e.V])
			}
			return out
		}
		want = aucReference(score(split.TestPos), score(split.TestNeg))
	default:
		return fmt.Errorf("unknown metric %q", metric)
	}
	if !closeTo(*c.Metric, want, 1e-9) {
		return failf("cell %s reports %s %.17g, recomputed %.17g", c.JobID, metric, *c.Metric, want)
	}
	return nil
}

func (st *sweepTable) replayOps() []replayOp {
	ops := []replayOp{jobOp(st.warm.body)}
	for _, in := range st.sweeps {
		ops = append(ops, func(ctx context.Context, r *replayer) error { return r.sweep(ctx, in.body) })
	}
	return ops
}

// sweep replays one sweep: decode, expand into cells, then per cell
// resolve, train, save and evaluate.
func (r *replayer) sweep(ctx context.Context, body []byte) error {
	defer r.tr.begin("sweep")()
	end := r.tr.begin("spec.decode_ms")
	sp, err := spec.DecodeSweep(bytes.NewReader(body))
	end()
	if err != nil {
		return err
	}
	end = r.tr.begin("sweep.expand_ms")
	plan, err := sweep.Expand(sp, r)
	end()
	if err != nil {
		return err
	}
	r.tr.add("sweep.cells", float64(len(plan.Cells)))
	for _, c := range plan.Cells {
		g, err := r.graph(c.Spec.Graph)
		if err != nil {
			return err
		}
		_, res, err := r.train(ctx, c.Spec, g)
		if err != nil {
			return err
		}
		name := "eval.strucequ_ms"
		if plan.Metric == spec.MetricLinkAUC {
			name = "eval.linkauc_ms"
		}
		end := r.tr.begin(name)
		_, err = c.Evaluate(res)
		end()
		if err != nil {
			return err
		}
		if plan.Metric == spec.MetricStrucEqu {
			// Exact StrucEqu scores every pair of the scoring graph, which
			// for these cells is the sweep's dataset graph.
			n := float64(res.Embedding().Rows)
			r.tr.add("eval.strucequ_pairs", n*(n-1)/2)
		}
	}
	return nil
}

// ResolveGraph lets sweep.Expand resolve graph axes through the
// replayer, as the service resolves them through its memo.
func (r *replayer) ResolveGraph(src spec.GraphSource) (*graph.Graph, error) {
	return r.graph(src)
}

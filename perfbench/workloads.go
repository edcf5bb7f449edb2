package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"

	"seprivgemb/internal/datasets"
	"seprivgemb/internal/graph"
	"seprivgemb/internal/spec"
)

// workload is one named traffic mix. setup runs on a fresh server (and
// may run several times, each on its own server); timed is the measured
// phase; check verifies outputs afterwards; replayOps lists the set-up and
// timed operations for the in-process replay, in order.
type workload interface {
	setup(ctx context.Context, b *bench, srv *server) error
	timed(ctx context.Context, b *bench, srv *server) (phase, error)
	check(ctx context.Context, b *bench, srv *server) error
	replayOps() []replayOp
}

// replayOp repeats one operation in process on a replayer.
type replayOp func(ctx context.Context, r *replayer) error

// phase is what the timed phase did.
type phase struct {
	ops, failed int
	latencies   []float64 // per operation, ms
	// slices holds per-second samples of a phase made of many short
	// operations; when set, throughput and CPU per operation are the
	// medians over slices, so a burst of interference on the shared host
	// moves one slice rather than the whole figure.
	slices []slice
}

// slice is one sampling interval of the timed phase.
type slice struct {
	seconds, cpuSeconds float64
	ops                 int
}

// size fixes the input scale of every workload.
type size struct {
	setups int // set-ups per run; setup_s is their median

	// jobs-fresh
	chamScale   float64 // chameleon-class dataset jobs
	warmScale   float64 // chameleon-class graph of the set-up job
	inlineScale float64 // ppi-class graph sent inline
	jobEpochs   int
	jobPassSecs float64 // requested seconds per pass; a paper-size pass takes about 22 s

	// sweep-table and serve-reads
	ppiScale      float64
	warmEpochs    int // sweep-table warm-up job
	sweepEpochs   int
	sweepPassSecs float64 // requested seconds per pass of two sweeps
	readEpochs    int
	window        int // rows per served window
	page          int // rows per export page
	readers       int // closed-loop read clients
}

var sizes = map[string]size{
	"paper": {
		setups:    3,
		chamScale: 0.25, warmScale: 0.25, inlineScale: 0.1, jobEpochs: 200, jobPassSecs: 20,
		ppiScale: 1, warmEpochs: 500, sweepEpochs: 200, sweepPassSecs: 18,
		readEpochs: 50, window: 64, page: 500, readers: 1,
	},
	"tiny": {
		setups:    2,
		chamScale: 0.02, warmScale: 0.02, inlineScale: 0.02, jobEpochs: 5, jobPassSecs: 1,
		ppiScale: 0.03, warmEpochs: 2, sweepEpochs: 5, sweepPassSecs: 1,
		readEpochs: 5, window: 8, page: 20, readers: 2,
	},
}

func workloadNames() []string { return []string{"jobs-fresh", "sweep-table", "serve-reads"} }

func newWorkload(opts options) (workload, error) {
	switch opts.workload {
	case "jobs-fresh":
		return newJobsFresh(opts)
	case "sweep-table":
		return newSweepTable(opts)
	case "serve-reads":
		return newServeReads(opts)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", opts.workload, workloadNames())
}

// passes is how many whole passes a run of the given length makes, one
// per passSecs requested, rounded, and at least one.
func passes(seconds int, passSecs float64) int {
	return max(1, int(math.Round(float64(seconds)/passSecs)))
}

// derive mixes a run seed with a path of small integers into an
// independent 64-bit seed (SplitMix64 finalizer per step), so every input
// of a run is a pure function of --seed.
func derive(seed uint64, path ...uint64) uint64 {
	h := seed
	for _, p := range path {
		h ^= p + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// Privacy parameters every job requests explicitly, so the privacy check
// compares against values the benchmark chose.
const (
	jobEpsilon = 3.5
	jobDelta   = 1e-5
)

// jobInput is one job the benchmark submits.
type jobInput struct {
	body []byte
	// inline is the request's edge list when the graph is sent inline.
	inline *spec.InlineSource
}

func newJob(src spec.GraphSource, prox string, epochs, workers int, seed uint64) jobInput {
	js := spec.JobSpec{
		Graph:     src,
		Proximity: prox,
		Config: spec.ConfigSpec{
			MaxEpochs: epochs,
			Epsilon:   jobEpsilon,
			Delta:     jobDelta,
			Seed:      seed,
			Workers:   workers,
		},
	}
	body, err := json.Marshal(js)
	if err != nil {
		panic(err) // a JobSpec always encodes
	}
	return jobInput{body: body, inline: src.Inline}
}

func datasetSource(name string, scale float64, seed uint64) spec.GraphSource {
	return spec.GraphSource{Dataset: &spec.DatasetSource{Name: name, Scale: scale, Seed: seed}}
}

// inlineSource generates a dataset-class graph on the benchmark's side
// and returns it as a request-carried edge list: the server sees only the
// edges.
func inlineSource(name string, scale float64, seed uint64) (spec.GraphSource, error) {
	g, err := datasets.Generate(name, scale, seed)
	if err != nil {
		return spec.GraphSource{}, err
	}
	return spec.GraphSource{Inline: inlineOf(g)}, nil
}

func inlineOf(g *graph.Graph) *spec.InlineSource {
	edges := make([][2]int, g.NumEdges())
	for i, e := range g.Edges() {
		edges[i] = [2]int{int(e.U), int(e.V)}
	}
	return &spec.InlineSource{Nodes: g.NumNodes(), Edges: edges}
}

// resultMeta is the window-free result view the privacy checks read.
func (s *server) resultMeta(ctx context.Context, id string) (spec.ResultResponse, error) {
	var rr spec.ResultResponse
	_, err := s.getJSON(ctx, "/v1/jobs/"+id+"/result?embedding=none", &rr)
	return rr, err
}

// checkJobs runs the privacy check on every listed job; every job
// requests jobEpsilon and jobDelta.
func checkJobs(ctx context.Context, srv *server, ids []string) error {
	for _, id := range ids {
		rr, err := srv.resultMeta(ctx, id)
		if err != nil {
			return err
		}
		if err := checkPrivacy(id, rr.EpsilonSpent, rr.DeltaSpent, jobEpsilon, jobDelta); err != nil {
			return err
		}
	}
	return nil
}

// checkResubmit posts an already finished job's spec again: it must land
// on the same job, already done, so no new training starts.
func checkResubmit(ctx context.Context, srv *server, id string, in jobInput) error {
	var jr spec.JobResponse
	if _, err := srv.postJSON(ctx, "/v1/jobs", in.body, &jr); err != nil {
		return err
	}
	if jr.ID != id || jr.Status != "done" {
		return failf("resubmitted spec of job %s answered job %s in status %q, want the same job done", id, jr.ID, jr.Status)
	}
	return nil
}

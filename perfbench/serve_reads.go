package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"seprivgemb/internal/spec"
	"seprivgemb/internal/xrand"
)

// serveReads reads published embeddings. Set-up trains two ppi-scale
// artifacts — one from a dataset source, one from a graph sent inline —
// and exports each in full through the embedding=range page cursor. The
// timed phase is closed-loop clients fetching random fixed-size row
// windows from /v1/jobs/{id}/result/rows/{lo}-{hi}: the store read path
// and HTTP encoding are nearly all of the work, and no training or
// proximity code runs.
//
// Windows start at windowStarts random rows per artifact. A client keeps
// the first body it gets for each window and only hashes the later ones;
// the kept bodies are decoded and checked after the timed phase. Decoding
// a window's JSON takes the client about twice as long as the server
// takes to serve it, so decoding in the timed loop would make the read
// rate a measure of the client.
type serveReads struct {
	jobs     []jobInput
	ids      []string
	exported [][][]float64 // per artifact, the full matrix from the cursor
	hashes   []string
	starts   [][]int // per artifact, the rows a window may start at
	seed     uint64
	seconds  int
	window   int
	page     int
	readers  int
	reads    []read
	bodies   map[windowKey][]byte // the first body served for each window
}

const windowStarts = 128

type windowKey struct{ artifact, lo int }

// read is one served window, reduced to what the checks need.
type read struct {
	artifact, lo int
	bodyHash     uint64 // FNV-1a of the raw response body
	rows         int    // the rest is filled in by decoding the body
	digest       uint64
	hash         string
}

func newServeReads(opts options) (*serveReads, error) {
	z, w := opts.size, opts.workers
	inline, err := inlineSource("ppi", z.ppiScale, derive(opts.seed, 2))
	if err != nil {
		return nil, err
	}
	return &serveReads{
		jobs: []jobInput{
			newJob(datasetSource("ppi", z.ppiScale, derive(opts.seed, 1)), "deepwalk", z.readEpochs, w, derive(opts.seed, 3)),
			newJob(inline, "deepwalk", z.readEpochs, w, derive(opts.seed, 4)),
		},
		seed:    opts.seed,
		seconds: opts.seconds,
		window:  z.window,
		page:    z.page,
		readers: z.readers,
	}, nil
}

func (sr *serveReads) setup(ctx context.Context, b *bench, srv *server) error {
	sr.ids, sr.exported, sr.hashes = nil, nil, nil
	for _, in := range sr.jobs {
		id, _, err := b.runJob(ctx, srv, in.body)
		if err != nil {
			return err
		}
		rows, hash, err := srv.exportRows(ctx, id, sr.page)
		if err != nil {
			return err
		}
		if len(rows) < sr.window {
			return fmt.Errorf("artifact %s has %d rows, fewer than a window", id, len(rows))
		}
		sr.ids = append(sr.ids, id)
		sr.exported = append(sr.exported, rows)
		sr.hashes = append(sr.hashes, hash)
	}
	sr.starts = make([][]int, len(sr.exported))
	for a, rows := range sr.exported {
		rng := xrand.New(derive(sr.seed, 9, uint64(a)))
		for range windowStarts {
			sr.starts[a] = append(sr.starts[a], rng.Intn(len(rows)-sr.window+1))
		}
	}
	return nil
}

// timed runs the closed-loop readers for the run's length. Reads take
// milliseconds, so a run of seconds ends within a read of its deadline.
func (sr *serveReads) timed(ctx context.Context, b *bench, srv *server) (phase, error) {
	var (
		mu   sync.Mutex
		ph   phase
		wg   sync.WaitGroup
		all  []read
		done atomic.Int64 // reads completed so far
	)
	sr.bodies = map[windowKey][]byte{}
	start := time.Now()
	deadline := start.Add(time.Duration(sr.seconds) * time.Second)
	// Sample reads completed and server CPU once a second.
	sampled := make(chan []slice, 1)
	go func() {
		var out []slice
		prevT, prevN := start, int64(0)
		prevCPU, err := srv.cpuSeconds()
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for err == nil && prevT.Before(deadline.Add(-time.Second/2)) {
			now := <-tick.C
			n := done.Load()
			cpu, cerr := srv.cpuSeconds()
			if cerr != nil {
				err = cerr
				break
			}
			out = append(out, slice{seconds: now.Sub(prevT).Seconds(), cpuSeconds: cpu - prevCPU, ops: int(n - prevN)})
			prevT, prevN, prevCPU = now, n, cpu
		}
		if err != nil {
			b.logf("cpu sampling: %v", err)
		}
		sampled <- out
	}()
	wg.Add(sr.readers)
	for c := 0; c < sr.readers; c++ {
		rng := xrand.New(derive(sr.seed, 8, uint64(c)))
		go func() {
			defer wg.Done()
			var mine []read
			var lat []float64
			failed := 0
			for time.Now().Before(deadline) {
				a := rng.Intn(len(sr.ids))
				lo := sr.starts[a][rng.Intn(windowStarts)]
				raw, d, err := b.readWindow(ctx, srv, sr.ids[a], lo, lo+sr.window)
				if err != nil {
					b.logf("read failed: %v", err)
					failed++
					continue
				}
				done.Add(1)
				h := fnv.New64a()
				h.Write(raw)
				mine = append(mine, read{artifact: a, lo: lo, bodyHash: h.Sum64()})
				k := windowKey{a, lo}
				mu.Lock()
				if _, ok := sr.bodies[k]; !ok {
					sr.bodies[k] = raw
				}
				mu.Unlock()
				lat = append(lat, float64(d.Nanoseconds())/1e6)
			}
			mu.Lock()
			all = append(all, mine...)
			ph.latencies = append(ph.latencies, lat...)
			ph.failed += failed
			ph.ops += len(mine) + failed
			mu.Unlock()
		}()
	}
	wg.Wait()
	ph.slices = <-sampled
	sr.reads = all
	return ph, nil
}

// readWindow fetches rows [lo, hi) of a job's embedding and returns the
// raw response body.
func (b *bench) readWindow(ctx context.Context, srv *server, id string, lo, hi int) ([]byte, time.Duration, error) {
	path := fmt.Sprintf("/v1/jobs/%s/result/rows/%d-%d", id, lo, hi)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.base+path, nil)
	if err != nil {
		return nil, 0, err
	}
	raw, d, err := srv.fetch(req)
	if err != nil {
		return nil, 0, err
	}
	b.noteWindow(d, len(raw))
	return raw, d, nil
}

// decodeWindow reduces a window's response body to what the checks need.
func decodeWindow(k windowKey, raw []byte) (read, error) {
	rd := read{artifact: k.artifact, lo: k.lo}
	h := fnv.New64a()
	h.Write(raw)
	rd.bodyHash = h.Sum64()
	var rr spec.ResultResponse
	if err := json.Unmarshal(raw, &rr); err != nil {
		return rd, fmt.Errorf("window %d of artifact %d: %w", k.lo, k.artifact, err)
	}
	rd.rows = len(rr.Embedding)
	rd.digest = digestRows(rr.Embedding)
	rd.hash = rr.EmbeddingHash
	return rd, nil
}

// check compares every served window with the exported matrix bit for
// bit — each window's first body is decoded and compared, and every read
// of the window must have served the same bytes — checks each export
// against its published full-matrix hash, checks the artifacts' privacy
// spend, and resubmits one spec.
func (sr *serveReads) check(ctx context.Context, b *bench, srv *server) error {
	for a, rows := range sr.exported {
		if got := fmt.Sprintf("%016x", digestRows(rows)); got != sr.hashes[a] {
			return failf("artifact %s exports rows hashing to %s, its published hash is %s", sr.ids[a], got, sr.hashes[a])
		}
	}
	decoded := make(map[windowKey]read, len(sr.bodies))
	for k, raw := range sr.bodies {
		r, err := decodeWindow(k, raw)
		if err != nil {
			return failf("%v", err)
		}
		if err := checkWindow(r, sr.exported[r.artifact], sr.window); err != nil {
			return err
		}
		if r.hash != sr.hashes[r.artifact] {
			return failf("window %d of artifact %d carries hash %s, want %s", r.lo, r.artifact, r.hash, sr.hashes[r.artifact])
		}
		decoded[k] = r
	}
	if err := checkSameBodies(sr.reads, decoded); err != nil {
		return err
	}
	if len(sr.reads) == 0 {
		return failf("no window was read")
	}
	if err := checkJobs(ctx, srv, sr.ids); err != nil {
		return err
	}
	return checkResubmit(ctx, srv, sr.ids[0], sr.jobs[0])
}

// checkSameBodies checks that every read of a window served the bytes of
// the window's checked body.
func checkSameBodies(reads []read, checked map[windowKey]read) error {
	for _, r := range reads {
		want, ok := checked[windowKey{r.artifact, r.lo}]
		if !ok || r.bodyHash != want.bodyHash {
			return failf("window %d of artifact %d was served with a body (%016x) other than the checked one (%016x)",
				r.lo, r.artifact, r.bodyHash, want.bodyHash)
		}
	}
	return nil
}

// replayOps replays the set-up jobs, then every timed window read as an
// operation of its own through Store.LoadRows.
func (sr *serveReads) replayOps() []replayOp {
	var ops []replayOp
	for _, in := range sr.jobs {
		ops = append(ops, jobOp(in.body))
	}
	for _, rd := range sr.reads {
		ops = append(ops, func(ctx context.Context, r *replayer) error {
			defer r.tr.begin("service.load_rows_ms")()
			_, err := r.store.LoadRows(r.keys[rd.artifact], rd.lo, rd.lo+sr.window)
			return err
		})
	}
	return ops
}

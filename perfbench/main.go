// Command perfbench is the repository's end-to-end benchmark. It starts a
// real seprivd process with an empty artifact directory, drives one named
// workload against it over HTTP, checks the outputs with code of its own,
// and prints one JSON result line:
//
//	perfbench -server <seprivd binary> -work <scratch dir> \
//	    --workload jobs-fresh|sweep-table|serve-reads --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics. With --trace 1
// the same operations run once more, in process, through each layer's
// exported Go functions with a span around every call, and the result
// carries the per-layer metrics instead (see README.md for which
// end-to-end metric each should move).
//
//	perfbench steady --workload W --runs N [--seconds S]
//
// runs the benchmark N times with seeds 1..N and prints each end-to-end
// metric's median, quartiles and spread against its bound in
// BENCHMARK.json.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steadyMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// options is one benchmark invocation.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	size     size
	server   string // seprivd binary
	work     string // scratch directory for artifact stores
	workers  int    // seprivd -max-workers and each job's worker count
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		opts   options
		traceN int
		seed   uint64
	)
	fs.StringVar(&opts.workload, "workload", "", "workload name: "+fmt.Sprint(workloadNames()))
	fs.Uint64Var(&seed, "seed", 1, "input seed; the same seed gives the same inputs")
	fs.IntVar(&opts.seconds, "seconds", 20, "nominal length of the timed phase")
	fs.IntVar(&traceN, "trace", 0, "1 replays the operations in process and reports per-layer metrics")
	fs.StringVar(&opts.server, "server", "", "path of the seprivd binary to benchmark")
	fs.StringVar(&opts.work, "work", "", "scratch directory for artifact stores")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opts.seed = seed
	opts.trace = traceN == 1
	// One worker slot and one worker per job: with a job's workers on
	// every CPU of a shared host, each epoch's reduce barrier waits for
	// the most-preempted CPU, and wall times spread by a fifth from run to
	// run. A single worker leaves a CPU to the client, the garbage
	// collector and the host.
	opts.workers = 1
	opts.size = sizes["paper"]
	if opts.server == "" || opts.work == "" {
		fmt.Fprintln(stderr, "perfbench: -server and -work are required")
		return 2
	}
	if opts.seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1")
		return 2
	}
	// An interrupt cancels the run, which then stops its server.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, opts, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// run executes one workload end to end and returns its result line. A
// failed output check yields a result with Correct false; an error means
// the run could not complete at all.
func run(ctx context.Context, opts options, logw io.Writer) (*result, error) {
	w, err := newWorkload(opts)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opts.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(opts.work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	b := &bench{opts: opts, dir: dir, log: logw}
	if opts.trace {
		b.layers = newLayerSums()
	}
	// Set-up runs several times, each on a fresh server with an empty
	// artifact store, and setup_s is their median; the last server stays
	// up for the timed phase.
	setups := opts.size.setups
	if opts.trace {
		setups = 1
	}
	var setupTimes []float64
	var srv *server
	for i := 0; i < setups; i++ {
		if srv != nil {
			srv.stop()
		}
		start := time.Now()
		srv, err = startServer(ctx, opts.server, filepath.Join(dir, fmt.Sprintf("store-%d", i)), opts.workers, logw)
		if err == nil {
			err = w.setup(ctx, b, srv)
		}
		if err != nil {
			if srv != nil {
				srv.stop()
			}
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		fmt.Fprintf(logw, "perfbench: %s set-up %d took %.3f s\n", opts.workload, i+1, setupTimes[i])
	}
	defer srv.stop()

	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	ph, err := w.timed(ctx, b, srv)
	if err != nil {
		return nil, fmt.Errorf("timed phase: %w", err)
	}
	wall := time.Since(start).Seconds()
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(logw, "perfbench: %s timed phase %.3f s, %d ops, server cpu %.2f s\n",
		opts.workload, wall, ph.ops, cpu1-cpu0)

	res := &result{Correct: true, Attempted: ph.ops, Failed: ph.failed, Metrics: map[string]metric{}}
	if cerr := w.check(ctx, b, srv); cerr != nil {
		var cf *checkFailure
		if !errors.As(cerr, &cf) {
			return nil, fmt.Errorf("output checks: %w", cerr)
		}
		fmt.Fprintln(logw, "perfbench: output check failed:", cerr)
		res.Correct = false
	}
	if !opts.trace {
		done := float64(ph.ops - ph.failed)
		res.Metrics["setup_s"] = metric{median(setupTimes), "s"}
		res.Metrics["peak_rss_mb"] = metric{rss, "MB"}
		rate, cpuPerOp := done/wall, (cpu1-cpu0)*1000/done
		if len(ph.slices) > 0 {
			var rates, cpus []float64
			for _, s := range ph.slices {
				if s.ops > 0 {
					rates = append(rates, float64(s.ops)/s.seconds)
					cpus = append(cpus, s.cpuSeconds*1000/float64(s.ops))
				}
			}
			rate, cpuPerOp = median(rates), median(cpus)
		}
		res.Metrics["ops_per_s"] = metric{rate, "1/s"}
		res.Metrics["op_cpu_ms"] = metric{cpuPerOp, "ms"}
		res.Metrics["op_p50_ms"] = metric{median(ph.latencies), "ms"}
		return res, nil
	}
	// Traced mode: collect the server-reported job timings, then replay
	// every operation in process with spans around each layer call.
	if err := b.collectJobTimings(ctx, srv); err != nil {
		return nil, err
	}
	srv.stop()
	// The replay runs twice, untraced and traced; the difference of their
	// wall times is the tracing overhead.
	tr := newTracer()
	untraced, traced, err := replayTimed(ctx, b, w.replayOps(), tr)
	if err != nil {
		return nil, err
	}
	self := tr.selfMs()
	var covered float64
	for _, m := range perLayer {
		if m.unit == "ms" {
			covered += self[m.name]
		}
	}
	fmt.Fprintf(logw, "perfbench: %s in-process replay untraced %.3f s, traced %.3f s (overhead %+.1f%%); per-layer self times cover %.3f s of it\n",
		opts.workload, untraced, traced, 100*(traced-untraced)/untraced, covered/1000)
	res.Metrics = layerMetrics(tr, b.layers)
	return res, nil
}

// median returns the middle value (the mean of the two middle values for
// an even count) of xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness command
// reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadyMain runs one workload N times, each in a fresh process with
// seeds 1..N, and prints each end-to-end metric's median,
// quartiles and spread — (q3 − q1) / median — against its bound.
func steadyMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench steady", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run")
		runs     = fs.Int("runs", 10, "number of runs")
		seconds  = fs.Int("seconds", 0, "run length (0 = run_seconds from BENCHMARK.json)")
		server   = fs.String("server", "", "path of the seprivd binary to benchmark")
		work     = fs.String("work", "", "scratch directory for artifact stores")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench steady:", err)
		return 1
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintln(stderr, "perfbench steady:", err)
		return 1
	}
	if *seconds == 0 {
		*seconds = bf.RunSeconds
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench steady:", err)
		return 1
	}
	values := map[string][]float64{}
	var failedShares []string
	for i := 0; i < *runs; i++ {
		seed := i + 1
		cmd := exec.Command(self, "-server", *server, "-work", *work,
			"--workload", *workload, "--seed", strconv.Itoa(seed),
			"--seconds", strconv.Itoa(*seconds), "--trace", "0")
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "perfbench steady: run %d (seed %d): %v\n", i+1, seed, err)
			return 1
		}
		res, err := lastResult(out.Bytes())
		if err != nil {
			fmt.Fprintf(stderr, "perfbench steady: run %d: %v\n", i+1, err)
			return 1
		}
		fmt.Fprintf(stdout, "run %2d seed %3d:", i+1, seed)
		names := make([]string, 0, len(res.Metrics))
		for name := range res.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			values[name] = append(values[name], res.Metrics[name].Value)
			fmt.Fprintf(stdout, " %s=%.6g", name, res.Metrics[name].Value)
		}
		fmt.Fprintf(stdout, " correct=%v failed=%d/%d\n", res.Correct, res.Failed, res.Attempted)
		failedShares = append(failedShares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
	}
	fmt.Fprintf(stdout, "\n%-14s %12s %12s %12s %8s %7s  verdict\n", "metric", "q1", "median", "q3", "spread", "bound")
	for _, m := range bf.EndToEnd {
		vs := values[m.Name]
		if len(vs) < 2 {
			fmt.Fprintf(stdout, "%-14s missing\n", m.Name)
			continue
		}
		q := quartiles(vs)
		spread := (q[2] - q[0]) / q[1]
		verdict := "within a third of its bound"
		switch {
		case spread > m.Bound:
			verdict = "OVER ITS BOUND"
		case spread > m.Bound/3:
			verdict = "within its bound, above a third of it"
		}
		fmt.Fprintf(stdout, "%-14s %12.6g %12.6g %12.6g %8.4f %7.3f  %s\n", m.Name, q[0], q[1], q[2], spread, m.Bound, verdict)
	}
	fmt.Fprintf(stdout, "failed/attempted per run: %s\n", strings.Join(failedShares, " "))
	return 0
}

// lastResult decodes the benchmark's result line: the last non-empty
// line of its output.
func lastResult(out []byte) (*result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("decoding result line %q: %w", last, err)
	}
	return &res, nil
}

// quartiles returns q1, median and q3 as Python's
// statistics.quantiles(data, n=4) computes them (the default "exclusive"
// method).
func quartiles(data []float64) [3]float64 {
	s := append([]float64(nil), data...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
	"time"

	"seprivgemb/internal/datasets"
	"seprivgemb/internal/eval"
	"seprivgemb/internal/graph"
	"seprivgemb/internal/mathx"
	"seprivgemb/internal/proximity"
	"seprivgemb/internal/spec"
	"seprivgemb/internal/xrand"
)

// buildServer compiles seprivd from the enclosing repository.
func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "seprivd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/seprivd")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building seprivd: %v\n%s", err, out)
	}
	return bin
}

// declaredMetrics reads the metric names BENCHMARK.json declares.
func declaredMetrics(t *testing.T) (endToEnd, perLayerNames []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	for _, m := range bf.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range bf.PerLayer {
		perLayerNames = append(perLayerNames, m.Name)
	}
	return endToEnd, perLayerNames
}

// TestWorkloadsTiny runs every workload end to end at the tiny size, both
// untraced and traced, against a real seprivd, and checks that each run
// passes its output checks with no failed operation and reports exactly
// the metrics BENCHMARK.json declares.
func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("starts seprivd processes")
	}
	bin := buildServer(t)
	e2e, layers := declaredMetrics(t)
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w, trace), func(t *testing.T) {
				opts := options{
					workload: w, seed: 5, seconds: 1, trace: trace,
					size: sizes["tiny"], server: bin, work: t.TempDir(), workers: runtime.NumCPU(),
				}
				res, err := run(context.Background(), opts, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
				}
				want := e2e
				if trace {
					want = layers
				}
				var got []string
				for name, m := range res.Metrics {
					got = append(got, name)
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0 {
						t.Errorf("metric %s = %v", name, m.Value)
					}
					if !trace && m.Value == 0 {
						t.Errorf("end-to-end metric %s reads 0", name)
					}
				}
				sort.Strings(got)
				want = append([]string(nil), want...)
				sort.Strings(want)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("metrics %v, BENCHMARK.json declares %v", got, want)
				}
			})
		}
	}
}

// perturbedRow serves a proximity with one entry of one row shifted.
type perturbedRow struct {
	proximity.Proximity
	row   int
	delta float64
}

func (p perturbedRow) Row(i int) []proximity.Entry {
	r := append([]proximity.Entry(nil), p.Proximity.Row(i)...)
	if i == p.row && len(r) > 0 {
		r[len(r)/2].P += p.delta
	}
	return r
}

func edgeList(g *graph.Graph) [][2]int {
	return inlineOf(g).Edges
}

func TestKatzCheck(t *testing.T) {
	g, err := datasets.Generate("ppi", 0.02, 9)
	if err != nil {
		t.Fatal(err)
	}
	prox, err := proximity.ByName("katz", g)
	if err != nil {
		t.Fatal(err)
	}
	ref := katzReference(g.NumNodes(), edgeList(g), katzBeta, katzMaxLen)
	if err := checkKatzRows(prox, ref); err != nil {
		t.Fatalf("the program's Katz rows fail the check: %v", err)
	}
	if err := checkKatzRows(perturbedRow{prox, 3, 1e-6}, ref); err == nil {
		t.Fatal("a Katz entry off by 1e-6 passed the check")
	}
	// A missing entry (a row that drops its last element) is caught too.
	if err := checkKatzRows(truncatedRow{prox, 5}, ref); err == nil {
		t.Fatal("a Katz row missing an entry passed the check")
	}
}

type truncatedRow struct {
	proximity.Proximity
	row int
}

func (p truncatedRow) Row(i int) []proximity.Entry {
	r := p.Proximity.Row(i)
	if i == p.row {
		return r[:len(r)-1]
	}
	return r
}

// randomRows is an n×d embedding with standard normal entries.
func randomRows(n, d int, seed uint64) [][]float64 {
	rng := xrand.New(seed)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		rng.NormalVec(rows[i], 1)
	}
	return rows
}

func toMatrix(rows [][]float64) *mathx.Matrix {
	m := mathx.NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	return m
}

func TestStrucEquCheck(t *testing.T) {
	g, err := datasets.Generate("ppi", 0.03, 4)
	if err != nil {
		t.Fatal(err)
	}
	rows := randomRows(g.NumNodes(), 8, 1)
	// Make the embedding carry some structure so the score is not ~0.
	for i := range rows {
		rows[i][0] += 0.3 * float64(g.Degree(i))
	}
	v := eval.StrucEqu(g, toMatrix(rows))
	c := spec.SweepCellInfo{JobID: "j", Metric: &v}
	if err := checkCellMetric(spec.MetricStrucEqu, g, c, rows); err != nil {
		t.Fatalf("the program's StrucEqu fails the check: %v", err)
	}
	off := v + 1e-6
	c.Metric = &off
	if err := checkCellMetric(spec.MetricStrucEqu, g, c, rows); err == nil {
		t.Fatal("a StrucEqu off by 1e-6 passed the check")
	}
}

func TestLinkAUCCheck(t *testing.T) {
	g, err := datasets.Generate("ppi", 0.03, 6)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 77
	rows := randomRows(g.NumNodes(), 8, 2)
	split, err := eval.SplitLinkPrediction(g, 0.10, xrand.New(seed^0x5eed))
	if err != nil {
		t.Fatal(err)
	}
	v := eval.LinkAUC(split, func(u, w int) float64 { return mathx.Dot(rows[u], rows[w]) })
	c := spec.SweepCellInfo{JobID: "j", Seed: seed, Metric: &v}
	if err := checkCellMetric(spec.MetricLinkAUC, g, c, rows); err != nil {
		t.Fatalf("the program's AUC fails the check: %v", err)
	}
	off := v + 1e-6
	c.Metric = &off
	if err := checkCellMetric(spec.MetricLinkAUC, g, c, rows); err == nil {
		t.Fatal("an AUC off by 1e-6 passed the check")
	}
}

func TestAUCReferenceTies(t *testing.T) {
	// One positive above both negatives, one tied with a negative: 1.5 / 2... of 4 pairs.
	got := aucReference([]float64{3, 1}, []float64{1, 0})
	if want := (2 + 1.5) / 4.0; got != want {
		t.Fatalf("aucReference = %v, want %v", got, want)
	}
}

func TestWindowCheck(t *testing.T) {
	full := randomRows(40, 6, 3)
	const width = 8
	window := func(lo int) [][]float64 {
		out := make([][]float64, width)
		for i := range out {
			out[i] = append([]float64(nil), full[lo+i]...)
		}
		return out
	}
	served := window(10)
	good := read{lo: 10, rows: width, digest: digestRows(served)}
	if err := checkWindow(good, full, width); err != nil {
		t.Fatalf("a faithful window fails the check: %v", err)
	}
	served[3][2] = math.Nextafter(served[3][2], math.Inf(1)) // one float, one ulp
	bad := read{lo: 10, rows: width, digest: digestRows(served)}
	if err := checkWindow(bad, full, width); err == nil {
		t.Fatal("a window with one changed float passed the check")
	}
	short := read{lo: 10, rows: width - 1, digest: digestRows(window(10)[:width-1])}
	if err := checkWindow(short, full, width); err == nil {
		t.Fatal("a short window passed the check")
	}
}

func TestSameBodiesCheck(t *testing.T) {
	body, err := json.Marshal(spec.ResultResponse{Embedding: randomRows(8, 6, 4)})
	if err != nil {
		t.Fatal(err)
	}
	k := windowKey{artifact: 1, lo: 10}
	first, err := decodeWindow(k, body)
	if err != nil {
		t.Fatal(err)
	}
	checked := map[windowKey]read{k: first}
	again, _ := decodeWindow(k, bytes.Clone(body))
	if err := checkSameBodies([]read{first, again}, checked); err != nil {
		t.Fatalf("identical bodies fail the check: %v", err)
	}
	changed := bytes.Clone(body)
	changed[bytes.IndexAny(changed, "123456789")]++ // one digit of one float
	other, _ := decodeWindow(k, changed)
	if err := checkSameBodies([]read{first, other}, checked); err == nil {
		t.Fatal("a read that served a different body passed the check")
	}
}

func TestDigestMatchesServerHash(t *testing.T) {
	rows := randomRows(5, 4, 8)
	if got, want := digestRows(rows), mathx.DigestFloat64s(toMatrix(rows).Data); got != want {
		t.Fatalf("digestRows = %016x, the server's hash %016x", got, want)
	}
}

func TestPrivacyCheck(t *testing.T) {
	cases := []struct {
		eps, delta float64
		ok         bool
	}{
		{3.5, 1e-5, true},
		{1.2, 0, true},
		{3.5000001, 1e-6, false},
		{1, 1.1e-5, false},
		{math.NaN(), 0, false},
	}
	for _, c := range cases {
		err := checkPrivacy("j", c.eps, c.delta, 3.5, 1e-5)
		if (err == nil) != c.ok {
			t.Errorf("spent (%g, %g): err = %v, want ok=%v", c.eps, c.delta, err, c.ok)
		}
	}
}

// TestResubmitCheck answers a resubmission with a new job, and then with
// the old job still queued: both must fail the check.
func TestResubmitCheck(t *testing.T) {
	for _, answer := range []spec.JobResponse{
		{ID: "other", Status: "done"},
		{ID: "j1", Status: "queued"},
	} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusAccepted)
			_ = json.NewEncoder(w).Encode(answer)
		}))
		srv := &server{base: ts.URL, client: ts.Client()}
		err := checkResubmit(context.Background(), srv, "j1", jobInput{body: []byte("{}")})
		ts.Close()
		if err == nil {
			t.Errorf("resubmission answered %+v passed the check", answer)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := quartiles(xs); got != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles = %v", got)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if got := quartiles([]float64{1, 2, 4, 8, 16}); got != [3]float64{1.5, 4, 12} {
		t.Fatalf("quartiles = %v", got)
	}
}

func TestDeriveIsAFunctionOfTheSeed(t *testing.T) {
	a := options{workload: "jobs-fresh", seed: 3, seconds: 20, size: sizes["tiny"], workers: 2}
	w1, err := newJobsFresh(a)
	if err != nil {
		t.Fatal(err)
	}
	w2, _ := newJobsFresh(a)
	a.seed = 4
	w3, _ := newJobsFresh(a)
	if string(w1.inputs[4].body) != string(w2.inputs[4].body) {
		t.Fatal("the same seed gave different inputs")
	}
	if string(w1.inputs[4].body) == string(w3.inputs[4].body) {
		t.Fatal("different seeds gave the same inputs")
	}
}

// TestTracerSelfTimes checks that children recorded inside a span — a
// fill observed from inside a call and stage durations — come off the
// span's self time, so the per-layer times add up without overlap, and
// that a nil tracer records nothing.
func TestTracerSelfTimes(t *testing.T) {
	tr := newTracer()
	end := tr.begin("core.train_ms")
	t0 := time.Now()
	tr.child("proximity.fill_ms", t0, t0.Add(3*time.Millisecond))
	tr.childDuration("core.update_ms", 5*time.Millisecond)
	tr.spans[0].start = t0.Add(-20 * time.Millisecond)
	end()
	tr.spans[0].end = t0
	got := tr.selfMs()
	if got["core.train_ms"] != 12 || got["proximity.fill_ms"] != 3 || got["core.update_ms"] != 5 {
		t.Fatalf("self times %v, want train 12, fill 3, update 5", got)
	}

	var off *tracer
	off.begin("core.train_ms")()
	off.childDuration("core.update_ms", time.Millisecond)
	off.add("core.epochs", 1)
}

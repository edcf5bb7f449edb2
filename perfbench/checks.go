package main

// The output checks. Each recomputes what the program reports with code
// of the benchmark's own — dense matrix powers, a two-hop common-neighbour
// count, an online Pearson correlation, a pairwise AUC, the standard
// library's FNV-1a — so a fault in the program's code cannot hide behind
// the same fault in its check.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"seprivgemb/internal/proximity"
)

// checkFailure marks a wrong program output, as opposed to a run that
// could not complete.
type checkFailure struct{ msg string }

func (e *checkFailure) Error() string { return e.msg }

func failf(format string, args ...any) error {
	return &checkFailure{msg: fmt.Sprintf(format, args...)}
}

// closeTo reports whether got matches want to rel relative precision.
func closeTo(got, want, rel float64) bool {
	return math.Abs(got-want) <= rel*math.Max(math.Abs(want), 1e-300)
}

// katzReference returns the dense Katz matrix Σ_{l=1..L} β^l A^l of the
// n-node undirected graph with the given edges, diagonal zeroed (the
// measure scores pairs of distinct nodes). Walk counts are whole numbers,
// exact in float64 for the graph sizes benchmarked, and the damping is
// applied term by term in increasing l.
func katzReference(n int, edges [][2]int, beta float64, maxLen int) [][]float64 {
	adj := make([][]int, n)
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	pow := make([][]float64, n) // A^l, starting at A^0 = I
	acc := make([][]float64, n)
	for i := range pow {
		pow[i] = make([]float64, n)
		pow[i][i] = 1
		acc[i] = make([]float64, n)
	}
	scale := 1.0
	next := make([][]float64, n)
	for i := range next {
		next[i] = make([]float64, n)
	}
	for l := 1; l <= maxLen; l++ {
		// next = pow · A, row by row: row i of A^l is Σ_k (A^{l-1})_{ik} A_k.
		for i := 0; i < n; i++ {
			row := next[i]
			for j := range row {
				row[j] = 0
			}
			for k, c := range pow[i] {
				if c == 0 {
					continue
				}
				for _, j := range adj[k] {
					row[j] += c
				}
			}
		}
		pow, next = next, pow
		scale *= beta
		for i := 0; i < n; i++ {
			for j, c := range pow[i] {
				if c != 0 {
					acc[i][j] += scale * c
				}
			}
		}
	}
	for i := range acc {
		acc[i][i] = 0
	}
	return acc
}

// checkKatzRows compares the program's Katz rows against the dense
// reference: every non-zero reference entry must appear with the same
// value, and no other entry may appear.
func checkKatzRows(prox proximity.Proximity, ref [][]float64) error {
	for i, want := range ref {
		row := prox.Row(i)
		nonzero := 0
		for _, w := range want {
			if w != 0 {
				nonzero++
			}
		}
		if len(row) != nonzero {
			return failf("katz row %d has %d entries, the dense reference %d", i, len(row), nonzero)
		}
		for _, e := range row {
			if w := want[e.J]; !closeTo(e.P, w, 1e-12) {
				return failf("katz[%d][%d] = %.17g, dense reference %.17g", i, e.J, e.P, w)
			}
		}
	}
	return nil
}

// strucEquReference is the structural-equivalence score of an embedding:
// the Pearson correlation, over all pairs i < j, between the Euclidean
// distance of the nodes' adjacency rows, sqrt(deg_i + deg_j − 2·cn_ij),
// and the Euclidean distance of their embedding rows. Common neighbours
// come from a two-hop count; the correlation is accumulated online.
func strucEquReference(n int, edges [][2]int, emb [][]float64) float64 {
	adj := make([][]int, n)
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	cn := make([]int, n)
	var c corr
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			cn[j] = 0
		}
		for _, w := range adj[i] {
			for _, j := range adj[w] {
				if j > i {
					cn[j]++
				}
			}
		}
		for j := i + 1; j < n; j++ {
			sq := float64(len(adj[i]) + len(adj[j]) - 2*cn[j])
			var d float64
			for k, x := range emb[i] {
				t := x - emb[j][k]
				d += t * t
			}
			c.add(math.Sqrt(sq), math.Sqrt(d))
		}
	}
	return c.pearson()
}

// corr accumulates a Pearson correlation in one pass (Welford's
// co-moment update).
type corr struct {
	n             float64
	mx, my        float64
	sxx, syy, sxy float64
}

func (c *corr) add(x, y float64) {
	c.n++
	dx := x - c.mx
	c.mx += dx / c.n
	dy := y - c.my
	c.my += dy / c.n
	c.sxx += dx * (x - c.mx)
	c.syy += dy * (y - c.my)
	c.sxy += dx * (y - c.my)
}

func (c *corr) pearson() float64 {
	if c.sxx == 0 || c.syy == 0 {
		return 0
	}
	return c.sxy / math.Sqrt(c.sxx*c.syy)
}

// aucReference is the probability that a positive pair outscores a
// negative one (ties count one half), counted over all pairs.
func aucReference(pos, neg []float64) float64 {
	if len(pos) == 0 || len(neg) == 0 {
		return 0.5
	}
	s := append([]float64(nil), neg...)
	sort.Float64s(s)
	var wins float64
	for _, p := range pos {
		below := sort.SearchFloat64s(s, p) // negatives < p
		upto := sort.Search(len(s), func(k int) bool { return s[k] > p })
		wins += float64(below) + 0.5*float64(upto-below)
	}
	return wins / (float64(len(pos)) * float64(len(neg)))
}

// dot is the inner-product link score.
func dot(a, b []float64) float64 {
	var s float64
	for i, x := range a {
		s += x * b[i]
	}
	return s
}

// digestRows is FNV-1a over the little-endian bits of the rows' values in
// row-major order: the embedding hash the server publishes, computed here
// with the standard library.
func digestRows(rows [][]float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, r := range rows {
		for _, x := range r {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// checkPrivacy checks one job's reported privacy spend against what its
// spec requested.
func checkPrivacy(id string, epsSpent, deltaSpent, eps, delta float64) error {
	if !(epsSpent <= eps) || !(deltaSpent <= delta) || epsSpent < 0 || deltaSpent < 0 {
		return failf("job %s spent (ε=%g, δ=%g) against a requested (ε=%g, δ=%g)", id, epsSpent, deltaSpent, eps, delta)
	}
	return nil
}

// checkWindow compares one served row window against the fully exported
// matrix, bit for bit.
func checkWindow(r read, full [][]float64, width int) error {
	if r.rows != width {
		return failf("window %d-%d of artifact %d has %d rows", r.lo, r.lo+width, r.artifact, r.rows)
	}
	if want := digestRows(full[r.lo : r.lo+width]); r.digest != want {
		return failf("window %d-%d of artifact %d differs from the exported matrix (digest %016x, want %016x)",
			r.lo, r.lo+width, r.artifact, r.digest, want)
	}
	return nil
}

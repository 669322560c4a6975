package algorithms

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"github.com/epfl-repro/everythinggraph/internal/graph"
)

// ALS implements alternating least squares matrix factorization over a
// bipartite rating graph (users on one side, items on the other; edge
// weights are ratings). Every iteration fixes one side's latent factors and
// solves, independently for each vertex of the other side, the regularized
// least-squares problem over its ratings — which is why ALS is a natural
// pull-mode, lock-free workload on adjacency lists (Table 6: "Adj. list /
// Pull (no lock)").
//
// Within the engine's model, one ALS sweep is two iterations: even
// iterations update users (pulling the item factors over the ratings), odd
// iterations update items.
type ALS struct {
	// Users is the number of user vertices; vertices [0, Users) are users
	// and [Users, NumVertices) are items.
	Users int
	// Factors is the latent dimensionality (default 8).
	Factors int
	// Lambda is the ridge regularization weight (default 0.1).
	Lambda float64
	// Sweeps is the number of full alternations (default 5); the run
	// executes 2*Sweeps engine iterations.
	Sweeps int
	// Seed makes the factor initialization deterministic.
	Seed int64

	// F holds the latent factor vector of every vertex (row-major,
	// Factors entries per vertex).
	F []float64

	n        int
	updating side // which side is being updated this iteration

	// Per-vertex normal-equation accumulators for the side being updated:
	// ata is the K x K Gram matrix, atb the K-vector right-hand side.
	ata []float64
	atb []float64
	mu  []sync.Mutex // stripes guarding the accumulators in unowned push spans

	// The solver's scratch, one set per run: the regularized Gram matrix and
	// the right-hand side, both consumed by the elimination.
	reg, rhs []float64
}

type side int

const (
	sideUsers side = iota
	sideItems
)

// alsStripes is the number of striped locks guarding the normal-equation
// accumulators in push spans that do not own their destinations (s.Atomic):
// one accumulation touches K+K*K floats, so a stripe lock stands in for
// per-field atomics.
const alsStripes = 1024

// NewALS creates an ALS factorization for a bipartite graph whose first
// `users` vertex ids are users.
func NewALS(users int) *ALS {
	return &ALS{Users: users, Factors: 8, Lambda: 0.1, Sweeps: 5, Seed: 42}
}

// Name implements Algorithm.
func (a *ALS) Name() string { return "als" }

// Dense implements Algorithm: one full side is processed every iteration.
func (a *ALS) Dense() bool { return true }

// Init implements Algorithm.
func (a *ALS) Init(g *graph.Graph) {
	if a.Factors <= 0 {
		a.Factors = 8
	}
	if a.Lambda <= 0 {
		a.Lambda = 0.1
	}
	if a.Sweeps <= 0 {
		a.Sweeps = 5
	}
	a.n = g.NumVertices()
	k := a.Factors
	a.F = make([]float64, a.n*k)
	rng := rand.New(rand.NewSource(a.Seed))
	for i := range a.F {
		a.F[i] = rng.Float64() * 0.1
	}
	a.ata = make([]float64, a.n*k*k)
	a.atb = make([]float64, a.n*k)
	a.mu = make([]sync.Mutex, alsStripes)
	a.reg = make([]float64, k*k)
	a.rhs = make([]float64, k)
	a.updating = sideUsers
}

// InitialFrontier implements Algorithm.
func (a *ALS) InitialFrontier(g *graph.Graph) *graph.Frontier {
	return graph.FullFrontier(g.NumVertices())
}

// isUser reports whether the vertex is on the user side.
func (a *ALS) isUser(v graph.VertexID) bool { return int(v) < a.Users }

// updatingVertex reports whether v belongs to the side being updated this
// iteration.
func (a *ALS) updatingVertex(v graph.VertexID) bool {
	if a.updating == sideUsers {
		return a.isUser(v)
	}
	return !a.isUser(v)
}

// BeforeIteration implements Algorithm: select the side to update and clear
// its accumulators.
func (a *ALS) BeforeIteration(iteration int) {
	if iteration%2 == 0 {
		a.updating = sideUsers
	} else {
		a.updating = sideItems
	}
	for i := range a.ata {
		a.ata[i] = 0
	}
	for i := range a.atb {
		a.atb[i] = 0
	}
}

// accumulate adds the contribution of neighbour u (with rating w) to the
// normal equations of vertex v.
func (a *ALS) accumulate(v, u graph.VertexID, w graph.Weight) {
	k := a.Factors
	fu := a.F[int(u)*k : int(u)*k+k]
	ata := a.ata[int(v)*k*k : int(v)*k*k+k*k]
	atb := a.atb[int(v)*k : int(v)*k+k]
	for i := 0; i < k; i++ {
		fi := fu[i]
		atb[i] += float64(w) * fi
		row := ata[i*k : i*k+k]
		for j := 0; j < k; j++ {
			row[j] += fi * fu[j]
		}
	}
}

// PushEdge implements Algorithm: an active neighbour u pushes its factor
// contribution into v's normal equations (v must be on the side being
// updated). The engine guarantees exclusive access to v.
func (a *ALS) PushEdge(u, v graph.VertexID, w graph.Weight) bool {
	if a.updatingVertex(v) && !a.updatingVertex(u) {
		a.accumulate(v, u, w)
	}
	return false
}

// Span kernels (the engine's Algorithm contract). ALS is dense, so the
// kernels never test frontier membership: every rating from the fixed side
// into the side being updated is accumulated once per iteration, in span
// order.

// PullRows accumulates, for each destination of [lo, hi) on the side being
// updated, its ratings from the fixed side in row order — Table 6's
// adjacency / pull / no-lock configuration. The worker owns the rows.
func (a *ALS) PullRows(_ *graph.Span, _ int, in *graph.Adjacency, lo, hi int) {
	idx, tgt := in.Index, in.Targets
	for vi := lo; vi < hi; vi++ {
		v := graph.VertexID(vi)
		if !a.updatingVertex(v) {
			continue
		}
		row := tgt[idx[v]:idx[v+1]]
		ws := in.RowWeights(idx[v], idx[v+1])[:len(row)]
		for j, u := range row {
			if !a.updatingVertex(u) {
				a.accumulate(v, u, ws[j])
			}
		}
	}
}

// rate applies the rating u -> v if it crosses from the fixed side into the
// side being updated, under v's accumulator stripe unless the span owns v.
func (a *ALS) rate(s *graph.Span, u, v graph.VertexID, w graph.Weight) {
	if !a.updatingVertex(v) || a.updatingVertex(u) {
		return
	}
	if !s.Atomic {
		a.accumulate(v, u, w)
		return
	}
	m := &a.mu[uint(v)%alsStripes]
	m.Lock()
	a.accumulate(v, u, w)
	m.Unlock()
}

// PushRows pushes the ratings of the active vertices' out-rows.
func (a *ALS) PushRows(s *graph.Span, _ int, out *graph.Adjacency, active []graph.VertexID) {
	idx, tgt := out.Index, out.Targets
	for _, u := range active {
		row := tgt[idx[u]:idx[u+1]]
		ws := out.RowWeights(idx[u], idx[u+1])[:len(row)]
		for j, v := range row {
			a.rate(s, u, v, ws[j])
		}
	}
}

// PushEdges applies a flat edge slice, both ways when mirrored.
func (a *ALS) PushEdges(s *graph.Span, _ int, edges []graph.Edge) {
	for _, e := range edges {
		a.rate(s, e.Src, e.Dst, e.W)
		if s.Mirror && e.Src != e.Dst {
			a.rate(s, e.Dst, e.Src, e.W)
		}
	}
}

// PullEdges is PushEdges: the destinations that pull are the side being
// updated, and pulling a rating is the same accumulation.
func (a *ALS) PullEdges(s *graph.Span, worker int, edges []graph.Edge) {
	a.PushEdges(s, worker, edges)
}

// AfterIteration implements Algorithm: solve the per-vertex normal equations
// for the side that was updated and stop after 2*Sweeps iterations.
func (a *ALS) AfterIteration(iteration int) bool {
	k := a.Factors
	for v := 0; v < a.n; v++ {
		if !a.updatingVertex(graph.VertexID(v)) {
			continue
		}
		ata := a.ata[v*k*k : v*k*k+k*k]
		atb := a.atb[v*k : v*k+k]
		if allZero(atb) {
			continue // vertex has no ratings; keep its current factors
		}
		// Ridge regularization on the diagonal.
		copy(a.reg, ata)
		for i := 0; i < k; i++ {
			a.reg[i*k+i] += a.Lambda
		}
		copy(a.rhs, atb)
		solveLinear(a.reg, a.rhs, a.F[v*k:v*k+k], k)
	}
	return iteration+1 >= 2*a.Sweeps
}

// Predict returns the model's predicted rating for (user, item).
func (a *ALS) Predict(user, item graph.VertexID) float64 {
	k := a.Factors
	fu := a.F[int(user)*k : int(user)*k+k]
	fi := a.F[int(item)*k : int(item)*k+k]
	sum := 0.0
	for i := 0; i < k; i++ {
		sum += fu[i] * fi[i]
	}
	return sum
}

// RMSE computes the root-mean-square error of the model over the given
// rating edges.
func (a *ALS) RMSE(edges []graph.Edge) float64 {
	if len(edges) == 0 {
		return 0
	}
	sum := 0.0
	for _, e := range edges {
		d := a.Predict(e.Src, e.Dst) - float64(e.W)
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(edges)))
}

// allZero reports whether every entry is zero.
func allZero(xs []float64) bool {
	for _, x := range xs {
		if x != 0 {
			return false
		}
	}
	return true
}

// solveLinear solves the k x k system A x = rhs into x with Gaussian
// elimination and partial pivoting. A is row-major; A and rhs are modified
// in place (the caller passes scratch copies). Back substitution writes
// every entry of x before reading it, so x's prior contents do not matter.
func solveLinear(a, rhs, x []float64, k int) {
	for col := 0; col < k; col++ {
		// Pivot.
		pivot := col
		best := math.Abs(a[col*k+col])
		for r := col + 1; r < k; r++ {
			if v := math.Abs(a[r*k+col]); v > best {
				best, pivot = v, r
			}
		}
		if best == 0 {
			// Singular column: leave the corresponding factor at zero.
			continue
		}
		if pivot != col {
			for c := 0; c < k; c++ {
				a[col*k+c], a[pivot*k+c] = a[pivot*k+c], a[col*k+c]
			}
			rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
		}
		// Eliminate.
		inv := 1 / a[col*k+col]
		for r := col + 1; r < k; r++ {
			f := a[r*k+col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < k; c++ {
				a[r*k+c] -= f * a[col*k+c]
			}
			rhs[r] -= f * rhs[col]
		}
	}
	// Back substitution.
	for row := k - 1; row >= 0; row-- {
		if a[row*k+row] == 0 {
			x[row] = 0
			continue
		}
		sum := rhs[row]
		for c := row + 1; c < k; c++ {
			sum -= a[row*k+c] * x[c]
		}
		x[row] = sum / a[row*k+row]
	}
}

// Validate checks that the vertex split is consistent with the graph.
func (a *ALS) Validate(g *graph.Graph) error {
	if a.Users <= 0 || a.Users >= g.NumVertices() {
		return fmt.Errorf("als: user count %d must be in (0, %d)", a.Users, g.NumVertices())
	}
	for _, e := range g.EdgeArray.Edges {
		if a.isUser(e.Src) == a.isUser(e.Dst) {
			return fmt.Errorf("als: edge %d-%d does not cross the bipartition", e.Src, e.Dst)
		}
	}
	return nil
}

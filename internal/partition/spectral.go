package partition

import (
	"math"
	"math/rand"

	"diam2/internal/graph"
)

// fiedlerVector approximates the eigenvector of the graph Laplacian
// with the second-smallest eigenvalue (the Fiedler vector) by power
// iteration on the shifted operator (cI - L), deflating the constant
// vector. Sorting vertices by this vector yields natural balanced
// cuts. iters controls the iteration count.
func fiedlerVector(g *graph.Graph, iters int, rng *rand.Rand) []float64 {
	n := g.N()
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64() - 0.5
	}
	// Shift: c = maximum degree + 1 makes cI - L positive
	// semi-definite with the Fiedler vector as the second-largest
	// eigenvector; the largest (constant) one is projected out.
	c := float64(g.MaxDegree() + 1)
	tmp := make([]float64, n)
	for it := 0; it < iters; it++ {
		// tmp = (cI - L) v = (c - deg(i)) v_i + sum_{j ~ i} v_j
		for i := 0; i < n; i++ {
			s := (c - float64(g.Degree(i))) * v[i]
			for _, j := range g.Neighbors(i) {
				s += v[j]
			}
			tmp[i] = s
		}
		if deflateNormalize(tmp, v) == 0 {
			return v
		}
	}
	return v
}

// SpectralLambda2 estimates the largest-magnitude adjacency eigenvalue
// orthogonal to the all-ones vector of a (near-)regular graph by power
// iteration. It is exposed for analysis: for a d-regular graph the
// balanced min cut is at least (d - lambda) * N/4 with lambda >=
// lambda2 (expander mixing), which bounds the achievable
// bisection-bandwidth estimates from below.
func SpectralLambda2(g *graph.Graph, iters int, seed int64) float64 {
	n := g.N()
	if n < 2 {
		return 0
	}
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64() - 0.5
	}
	tmp := make([]float64, n)
	var lambda float64
	for it := 0; it < iters; it++ {
		for i := 0; i < n; i++ {
			s := 0.0
			for _, j := range g.Neighbors(i) {
				s += v[j]
			}
			tmp[i] = s
		}
		if lambda = deflateNormalize(tmp, v); lambda == 0 {
			return 0
		}
	}
	return lambda
}

// deflateNormalize projects the all-ones direction out of tmp and, if
// anything is left, stores the unit vector along it in v. It returns
// the norm of the projected vector (0 leaves v untouched).
func deflateNormalize(tmp, v []float64) float64 {
	mean := 0.0
	for _, x := range tmp {
		mean += x
	}
	mean /= float64(len(tmp))
	norm := 0.0
	for i := range tmp {
		tmp[i] -= mean
		norm += tmp[i] * tmp[i]
	}
	norm = math.Sqrt(norm)
	if norm == 0 {
		return 0
	}
	for i := range tmp {
		v[i] = tmp[i] / norm
	}
	return norm
}

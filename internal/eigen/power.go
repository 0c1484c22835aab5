package eigen

import "math"

// Edge is one weighted directed edge of a sparse skew-symmetric matrix:
// M[From][To] = W, M[To][From] = -W.
type Edge struct {
	From, To int32
	W        float64
}

// SkewMaxSparse computes σmax of the n×n skew-symmetric matrix given by
// its edge list, using power iteration on S = MᵀM with sparse
// matrix-vector products. Cost is O(|edges| · iterations), which makes the
// near-budget subpatterns of index construction cheap where a dense
// solver would be cubic (the paper's §3.3 observes sparse eigenvalue
// computation "would be even more efficient"; this is that path).
//
// The returned value converges from below; callers that must preserve the
// no-false-negative property should apply a small upward margin (see
// SafetyMargin).
func SkewMaxSparse(n int, edges []Edge) float64 {
	if n == 0 || len(edges) == 0 {
		return 0
	}
	x := make([]float64, n)
	// Deterministic pseudo-random start vector to avoid an unlucky
	// orthogonal initialization; index construction must be reproducible.
	seed := uint64(0x9e3779b97f4a7c15)
	for i := range x {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		x[i] = float64(seed%2048)/2048.0 + 0.5
	}
	normalize(x)
	y := make([]float64, n)
	z := make([]float64, n)
	prev := 0.0
	const maxIter = 2000
	for iter := 0; iter < maxIter; iter++ {
		// y = M x ; z = Mᵀ y = -M y
		for i := range y {
			y[i] = 0
		}
		for _, e := range edges {
			y[e.From] += e.W * x[e.To]
			y[e.To] -= e.W * x[e.From]
		}
		for i := range z {
			z[i] = 0
		}
		for _, e := range edges {
			z[e.To] += e.W * y[e.From]
			z[e.From] -= e.W * y[e.To]
		}
		// Rayleigh quotient of S at x is ||Mx||² = ⟨z, x⟩ for unit x.
		lambda := 0.0
		for i := range z {
			lambda += z[i] * x[i]
		}
		if lambda <= 0 {
			return 0
		}
		norm := normalize(z)
		if norm == 0 {
			return math.Sqrt(lambda)
		}
		x, z = z, x
		sigma := math.Sqrt(lambda)
		if iter > 4 && math.Abs(sigma-prev) <= 1e-12*math.Max(1, sigma) {
			return sigma
		}
		prev = sigma
	}
	return prev
}

// SafetyMargin inflates a power-iteration estimate so that an
// underestimate cannot produce index false negatives: entry keys are
// stored with the margin applied, query features are computed exactly
// with the dense solver. It is a margin for the error of this solver — a
// power iteration that stops at a relative change of 1e-12 can still be
// 1e-6 short of σmax when the top two singular values are close — on the
// stored side, and applies to graphs past the dense limit only. The
// rounding of the dense solver, which both sides of every comparison go
// through, is covered by the query-side tolerance of internal/core
// (slack, a thousand times smaller); an entry stored with this margin
// gets both.
func SafetyMargin(sigma float64) float64 {
	return sigma * (1 + 1e-6)
}

func normalize(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	if s == 0 {
		return 0
	}
	inv := 1 / math.Sqrt(s)
	for i := range v {
		v[i] *= inv
	}
	return math.Sqrt(s)
}

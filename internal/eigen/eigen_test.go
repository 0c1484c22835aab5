package eigen

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestSymKnownMatrices(t *testing.T) {
	cases := []struct {
		name string
		m    [][]float64
		want []float64
	}{
		{"diag", [][]float64{{3, 0}, {0, -1}}, []float64{-1, 3}},
		{"pauli-x", [][]float64{{0, 1}, {1, 0}}, []float64{-1, 1}},
		{"2x2", [][]float64{{2, 1}, {1, 2}}, []float64{1, 3}},
		{
			// Path-graph adjacency: eigenvalues 2cos(kπ/(n+1)).
			"path4",
			[][]float64{
				{0, 1, 0, 0},
				{1, 0, 1, 0},
				{0, 1, 0, 1},
				{0, 0, 1, 0},
			},
			[]float64{
				2 * math.Cos(4*math.Pi/5),
				2 * math.Cos(3*math.Pi/5),
				2 * math.Cos(2*math.Pi/5),
				2 * math.Cos(1*math.Pi/5),
			},
		},
	}
	for _, c := range cases {
		got, err := SymEigenvalues(c.m)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(got) != len(c.want) {
			t.Fatalf("%s: got %d eigenvalues", c.name, len(got))
		}
		for i := range got {
			if !almostEqual(got[i], c.want[i], 1e-10) {
				t.Errorf("%s: eig[%d] = %v, want %v", c.name, i, got[i], c.want[i])
			}
		}
	}
}

func TestSymRejectsNonSquare(t *testing.T) {
	if _, err := SymEigenvalues([][]float64{{1, 2}}); err == nil {
		t.Error("non-square accepted")
	}
	if _, err := JacobiEigenvalues([][]float64{{1, 2}}); err == nil {
		t.Error("Jacobi: non-square accepted")
	}
	if v, err := SymEigenvalues(nil); err != nil || v != nil {
		t.Error("empty matrix should yield empty result")
	}
}

func randomSymmetric(rng *rand.Rand, n int) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64() * 5
			m[i][j] = v
			m[j][i] = v
		}
	}
	return m
}

func TestQLAgreesWithJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(12)
		m := randomSymmetric(rng, n)
		a, err := SymEigenvalues(m)
		if err != nil {
			t.Fatal(err)
		}
		b, err := JacobiEigenvalues(m)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if !almostEqual(a[i], b[i], 1e-8) {
				t.Fatalf("trial %d: QL %v vs Jacobi %v differ at %d", trial, a, b, i)
			}
		}
	}
}

func TestEigenvalueSumEqualsTrace(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		m := randomSymmetric(rng, n)
		vals, err := SymEigenvalues(m)
		if err != nil {
			return false
		}
		trace, sum := 0.0, 0.0
		for i := 0; i < n; i++ {
			trace += m[i][i]
		}
		for _, v := range vals {
			sum += v
		}
		return almostEqual(trace, sum, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSkewKnownMatrices(t *testing.T) {
	// [[0,a],[-a,0]] has spectrum ±ia.
	sig, err := SkewSpectrum([][]float64{{0, 3}, {-3, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(sig[0], 3, 1e-12) || !almostEqual(sig[1], 3, 1e-12) {
		t.Errorf("2x2 spectrum = %v, want [3 3]", sig)
	}
	// Star a->b (w=1), a->c (w=2): sigma_max = sqrt(1+4).
	star := [][]float64{
		{0, 1, 2},
		{-1, 0, 0},
		{-2, 0, 0},
	}
	max, err := SkewMax(star)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(max, math.Sqrt(5), 1e-12) {
		t.Errorf("star sigma = %v, want sqrt(5)", max)
	}
	// Chain a->b (u), b->c (v): sigma_max = sqrt(u²+v²).
	chain := [][]float64{
		{0, 2, 0},
		{-2, 0, 5},
		{0, -5, 0},
	}
	max, err = SkewMax(chain)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(max, math.Sqrt(29), 1e-12) {
		t.Errorf("chain sigma = %v, want sqrt(29)", max)
	}
}

func TestSkewRejectsNonSkew(t *testing.T) {
	if _, err := SkewSpectrum([][]float64{{0, 1}, {1, 0}}); err == nil {
		t.Error("symmetric matrix accepted as skew")
	}
	if _, err := SkewSpectrum([][]float64{{1, 0}, {0, 1}}); err == nil {
		t.Error("nonzero diagonal accepted as skew")
	}
}

// randomSkewDAG builds a random weighted DAG's skew matrix (edges only
// from lower to higher index, like a topological order).
func randomSkewDAG(rng *rand.Rand, n int, p float64) ([][]float64, []Edge) {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	var edges []Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				w := float64(1 + rng.Intn(30))
				m[i][j] = w
				m[j][i] = -w
				edges = append(edges, Edge{From: int32(i), To: int32(j), W: w})
			}
		}
	}
	return m, edges
}

// TestInterlacing is the property Theorem 3 rests on: the eigenvalue range
// of an induced subgraph (principal submatrix) is contained in the
// range of the full matrix.
func TestInterlacing(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(10)
		m, _ := randomSkewDAG(rng, n, 0.4)
		fullMax, err := SkewMax(m)
		if err != nil {
			t.Fatal(err)
		}
		// Take a random subset of vertices as the induced subgraph.
		keep := rng.Perm(n)[:1+rng.Intn(n-1)]
		sub := make([][]float64, len(keep))
		for i := range sub {
			sub[i] = make([]float64, len(keep))
			for j := range sub[i] {
				sub[i][j] = m[keep[i]][keep[j]]
			}
		}
		subMax, err := SkewMax(sub)
		if err != nil {
			t.Fatal(err)
		}
		if subMax > fullMax+1e-9 {
			t.Fatalf("trial %d: induced subgraph sigma %v > full %v", trial, subMax, fullMax)
		}
	}
}

func TestPowerIterationAgreesWithDense(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(40)
		m, edges := randomSkewDAG(rng, n, 0.25)
		if len(edges) == 0 {
			continue
		}
		dense, err := SkewMax(m)
		if err != nil {
			t.Fatal(err)
		}
		sparse := SkewMaxSparse(n, edges)
		if !almostEqual(dense, sparse, 1e-6) {
			t.Fatalf("trial %d (n=%d, %d edges): dense %v vs sparse %v",
				trial, n, len(edges), dense, sparse)
		}
	}
}

func TestPowerIterationDegenerate(t *testing.T) {
	if got := SkewMaxSparse(0, nil); got != 0 {
		t.Errorf("empty = %v", got)
	}
	if got := SkewMaxSparse(5, nil); got != 0 {
		t.Errorf("edgeless = %v", got)
	}
	// Repeated top singular value (two disjoint equal edges).
	edges := []Edge{{0, 1, 7}, {2, 3, 7}}
	if got := SkewMaxSparse(4, edges); !almostEqual(got, 7, 1e-9) {
		t.Errorf("degenerate top pair = %v, want 7", got)
	}
}

func TestSafetyMarginIsUpward(t *testing.T) {
	for _, v := range []float64{0, 1, 1e-12, 12345.678} {
		if SafetyMargin(v) < v {
			t.Errorf("SafetyMargin(%v) = %v < input", v, SafetyMargin(v))
		}
	}
}

func TestSingleElementMatrices(t *testing.T) {
	v, err := SymEigenvalues([][]float64{{7}})
	if err != nil || len(v) != 1 || v[0] != 7 {
		t.Errorf("1x1 sym = %v, %v", v, err)
	}
	s, err := SkewSpectrum([][]float64{{0}})
	if err != nil || len(s) != 1 || s[0] != 0 {
		t.Errorf("1x1 skew = %v, %v", s, err)
	}
	max, err := SkewMax(nil)
	if err != nil || max != 0 {
		t.Errorf("empty sigma = %v %v", max, err)
	}
}

func TestLargeRandomSymmetricStaysFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	m := randomSymmetric(rng, 80)
	vals, err := SymEigenvalues(m)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("eigenvalue %d is %v", i, v)
		}
		if i > 0 && vals[i-1] > v {
			t.Fatal("eigenvalues not sorted")
		}
	}
}

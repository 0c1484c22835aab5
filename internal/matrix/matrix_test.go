package matrix

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"github.com/fix-index/fix/internal/eigen"
)

func TestEncoderAssignment(t *testing.T) {
	e := NewEdgeEncoder()
	w1 := e.Encode(1, 2)
	w2 := e.Encode(1, 3)
	w3 := e.Encode(2, 3)
	if w1 != 1 || w2 != 2 || w3 != 3 {
		t.Fatalf("weights = %d %d %d", w1, w2, w3)
	}
	if again := e.Encode(1, 2); again != w1 {
		t.Errorf("re-encode = %d, want %d", again, w1)
	}
	if w, ok := e.Lookup(1, 3); !ok || w != w2 {
		t.Errorf("Lookup = %d, %v", w, ok)
	}
	if _, ok := e.Lookup(9, 9); ok {
		t.Error("Lookup of unseen pair succeeded")
	}
	if e.Len() != 3 {
		t.Errorf("Len = %d", e.Len())
	}
	// Direction matters: (2,1) is distinct from (1,2).
	if w := e.Encode(2, 1); w == w1 {
		t.Error("reversed pair shares a weight")
	}
}

func TestEncoderRoundTrip(t *testing.T) {
	e := NewEdgeEncoder()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		e.Encode(rng.Uint32()%50, rng.Uint32()%50)
	}
	var buf bytes.Buffer
	if _, err := e.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeEncoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != e.Len() {
		t.Fatalf("len = %d, want %d", back.Len(), e.Len())
	}
	for p, w := range e.pairs {
		got, ok := back.Lookup(p.Parent, p.Child)
		if !ok || got != w {
			t.Errorf("pair %v: got %d, %v; want %d", p, got, ok, w)
		}
	}
}

func TestReadEncoderGarbage(t *testing.T) {
	if _, err := ReadEdgeEncoder(bytes.NewReader([]byte{1})); err == nil {
		t.Error("truncated encoder accepted")
	}
}

// figure2 is the bisimulation graph of the paper's Figure 2 in compact
// form: bib -> {article, book, inproceedings}; article -> {author(1),
// title}; ... simplified to a representative DAG.
func figure2() *Graph {
	// 0=bib 1=article 2=book 3=author_a 4=author_b 5=title
	return &Graph{
		Labels: []uint32{1, 2, 3, 4, 4, 5},
		Adj: [][]int32{
			{1, 2},
			{3, 5},
			{4, 5},
			nil, nil, nil,
		},
	}
}

func TestBuildSkewShape(t *testing.T) {
	g := figure2()
	enc := NewEdgeEncoder()
	m, ok := BuildSkew(g, enc, true)
	if !ok {
		t.Fatal("assign build failed")
	}
	n := g.NumVertices()
	for i := 0; i < n; i++ {
		if m[i][i] != 0 {
			t.Errorf("diagonal (%d,%d) = %v", i, i, m[i][i])
		}
		for j := 0; j < n; j++ {
			if m[i][j] != -m[j][i] {
				t.Errorf("not skew at (%d,%d)", i, j)
			}
		}
	}
	// Same label pair, same weight: article->title and book->title have
	// different parent labels, so they differ; the two author edges from
	// distinct labels differ too. But re-encoding the same graph yields
	// identical weights.
	m2, ok := BuildSkew(g, enc, false)
	if !ok {
		t.Fatal("lookup build failed")
	}
	for i := range m {
		for j := range m[i] {
			if m[i][j] != m2[i][j] {
				t.Fatalf("rebuild differs at (%d,%d)", i, j)
			}
		}
	}
	if g.NumEdges() != 6 {
		t.Errorf("NumEdges = %d", g.NumEdges())
	}
}

func TestBuildSkewUnknownPair(t *testing.T) {
	g := figure2()
	enc := NewEdgeEncoder()
	if _, ok := BuildSkew(g, enc, false); ok {
		t.Error("lookup build with empty encoder should fail")
	}
	if _, ok := BuildEdges(g, enc, false); ok {
		t.Error("edge build with empty encoder should fail")
	}
}

func TestBuildEdgesMatchesBuildSkew(t *testing.T) {
	g := figure2()
	enc := NewEdgeEncoder()
	m, _ := BuildSkew(g, enc, true)
	edges, ok := BuildEdges(g, enc, false)
	if !ok {
		t.Fatal("BuildEdges failed")
	}
	if len(edges) != g.NumEdges() {
		t.Fatalf("%d edges, want %d", len(edges), g.NumEdges())
	}
	for _, e := range edges {
		if m[e.From][e.To] != e.W {
			t.Errorf("edge %v disagrees with matrix %v", e, m[e.From][e.To])
		}
	}
}

// TestSpectrumPermutationInvariance verifies the property §3.2 relies on:
// renumbering vertices does not change the eigenvalues.
func TestSpectrumPermutationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		n := 3 + rng.Intn(8)
		g := &Graph{Labels: make([]uint32, n), Adj: make([][]int32, n)}
		for i := range g.Labels {
			g.Labels[i] = uint32(1 + rng.Intn(4))
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.4 {
					g.Adj[i] = append(g.Adj[i], int32(j))
				}
			}
		}
		enc := NewEdgeEncoder()
		m1, _ := BuildSkew(g, enc, true)
		max1, err := eigen.SkewMax(m1)
		if err != nil {
			t.Fatal(err)
		}
		// Permute the graph.
		perm := rng.Perm(n)
		pg := &Graph{Labels: make([]uint32, n), Adj: make([][]int32, n)}
		for i, p := range perm {
			pg.Labels[p] = g.Labels[i]
		}
		for i, adj := range g.Adj {
			for _, j := range adj {
				pg.Adj[perm[i]] = append(pg.Adj[perm[i]], int32(perm[j]))
			}
		}
		m2, ok := BuildSkew(pg, enc, false)
		if !ok {
			t.Fatal("permuted build failed")
		}
		max2, err := eigen.SkewMax(m2)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(max1-max2) > 1e-9*math.Max(1, max1) {
			t.Fatalf("trial %d: sigma changed under permutation: %v vs %v", trial, max1, max2)
		}
	}
}

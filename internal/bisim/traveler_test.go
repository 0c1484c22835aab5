package bisim

import (
	"errors"
	"io"
	"math"
	"testing"

	"github.com/fix-index/fix/internal/eigen"
	"github.com/fix-index/fix/internal/matrix"
)

func collectEvents(t *testing.T, s EventStream) []Event {
	t.Helper()
	var out []Event
	for {
		ev, err := s.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ev)
	}
}

func TestTravelerFullUnfolding(t *testing.T) {
	g, _, _ := buildFromXML(t, `<a><b><c/></b><b><c/></b></a>`, nil)
	// Bisim graph: c, b{c}, a{b} — unfolding to depth 3 replays a/b/c
	// (the two b's merged, so the unfolding has ONE b branch).
	evs := collectEvents(t, NewTraveler(g.Root, 3, 0))
	if len(evs) != 6 { // open a, open b, open c, close c, close b, close a
		t.Fatalf("events = %d: %v", len(evs), evs)
	}
	opens := 0
	depth, maxDepth := 0, 0
	for _, ev := range evs {
		if ev.Open {
			opens++
			depth++
			if depth > maxDepth {
				maxDepth = depth
			}
		} else {
			depth--
		}
	}
	if opens != 3 || maxDepth != 3 || depth != 0 {
		t.Errorf("opens=%d maxDepth=%d final=%d", opens, maxDepth, depth)
	}
}

func TestTravelerDepthTruncation(t *testing.T) {
	g, _, _ := buildFromXML(t, `<a><b><c><d/></c></b></a>`, nil)
	evs := collectEvents(t, NewTraveler(g.Root, 2, 0))
	maxDepth, depth := 0, 0
	for _, ev := range evs {
		if ev.Open {
			depth++
			if depth > maxDepth {
				maxDepth = depth
			}
		} else {
			depth--
		}
	}
	if maxDepth != 2 {
		t.Errorf("truncated unfolding reached depth %d, want 2", maxDepth)
	}
}

func TestTravelerBudget(t *testing.T) {
	g, _, _ := buildFromXML(t, `<a><b><c/></b><d><c/></d><e><c/></e></a>`, nil)
	s := NewTraveler(g.Root, 3, 2)
	var err error
	for err == nil {
		_, err = s.Next()
	}
	if !errors.Is(err, ErrBudget) {
		t.Errorf("err = %v, want ErrBudget", err)
	}
}

// TestSubpatternTruncationRebuilds reproduces the paper's §4.4 point: the
// depth-truncated subgraph is not a bisimulation graph, so GEN-SUBPATTERN
// must rebuild. With <r><x><y/></x><x><z/></x></r> truncated to depth 2,
// the two x classes have equal signatures (both childless at the cut) and
// must merge.
func TestSubpatternTruncationRebuilds(t *testing.T) {
	g, _, _ := buildFromXML(t, `<r><x><y/></x><x><z/></x></r>`, nil)
	sub, ok, err := Subpattern(g.Root, 2, 0)
	if err != nil || !ok {
		t.Fatal(err, ok)
	}
	// Truncated: r{x} with a single merged x class => 2 vertices.
	if len(sub.Vertices) != 2 {
		t.Errorf("truncated subpattern has %d vertices, want 2", len(sub.Vertices))
	}
}

func TestSubpatternFastPathMatchesRebuild(t *testing.T) {
	// When the vertex depth fits in the limit, the fast path (reachable
	// subgraph) and the traveler rebuild must produce isospectral graphs.
	g, _, _ := buildFromXML(t, figure1, nil)
	for _, v := range g.Vertices {
		fast, ok, err := Subpattern(v, int(v.Depth), 0)
		if err != nil || !ok {
			t.Fatal(err, ok)
		}
		slow, err := Build(NewTraveler(v, int(v.Depth), 0), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(fast.Vertices) != len(slow.Vertices) || fast.NumEdges() != slow.NumEdges() {
			t.Fatalf("vertex %d: fast %d/%d vs slow %d/%d", v.ID,
				len(fast.Vertices), fast.NumEdges(), len(slow.Vertices), slow.NumEdges())
		}
		enc := matrix.NewEdgeEncoder()
		mf, _ := matrix.BuildSkew(fast.MatrixGraph(), enc, true)
		ms, okk := matrix.BuildSkew(slow.MatrixGraph(), enc, false)
		if !okk {
			t.Fatal("slow graph has unknown pairs")
		}
		maxF, err := eigen.SkewMax(mf)
		if err != nil {
			t.Fatal(err)
		}
		maxS, err := eigen.SkewMax(ms)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(maxF-maxS) > 1e-9*math.Max(1, maxF) {
			t.Fatalf("vertex %d: spectra differ: %v vs %v", v.ID, maxF, maxS)
		}
	}
}

func TestSubpatternBudgetFallback(t *testing.T) {
	g, _, _ := buildFromXML(t, figure1, nil)
	_, ok, err := Subpattern(g.Root, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("budget 1 should report oversize")
	}
}

func TestReachableIsIsolated(t *testing.T) {
	g, _, _ := buildFromXML(t, `<a><b><c/></b></a>`, nil)
	sub := Reachable(g.Root.Children[0]) // b{c}
	if len(sub.Vertices) != 2 {
		t.Fatalf("reachable vertices = %d, want 2", len(sub.Vertices))
	}
	// Mutating the copy must not touch the original.
	sub.Root.Label = 999
	for _, v := range g.Vertices {
		if v.Label == 999 {
			t.Error("Reachable shares vertices with the source graph")
		}
	}
	// IDs are dense and children precede parents.
	for i, v := range sub.Vertices {
		if int(v.ID) != i {
			t.Errorf("vertex %d has ID %d", i, v.ID)
		}
		for _, c := range v.Children {
			if c.ID >= v.ID {
				t.Errorf("child %d does not precede parent %d", c.ID, v.ID)
			}
		}
	}
}

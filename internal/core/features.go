package core

import (
	"fmt"
	"hash/fnv"
	"math"

	"github.com/fix-index/fix/internal/bisim"
	"github.com/fix-index/fix/internal/eigen"
	"github.com/fix-index/fix/internal/matrix"
)

// Features is what the index holds of a unit besides its root label: σ,
// the largest eigenvalue magnitude of its skew-symmetric matrix, in the
// key (paper §3.4), and the sketch of its edge label pairs, in its chunk
// (key.go). The paper's key is the range (λmin, λmax); the spectrum is
// {±iσ}, so that range is [−σ, σ] and σ says all of it. Oversize patterns
// carry σ = +Inf, the artificial always-containing range, and every
// sketch bit, so they are always candidates (paper §6.1).
type Features struct {
	Sigma    float64
	Oversize bool
	Sketch   uint32
}

// Contains reports whether f's range contains g's (the pruning test of
// Theorem 3: a subpattern's eigenvalue range is contained in the
// pattern's). Both ranges are symmetric about 0, so that is one
// comparison of σ.
func (f Features) Contains(g Features) bool {
	return g.Sigma <= f.Sigma
}

// slack is the one tolerance of every σ comparison: two spectra that are
// equal in exact arithmetic — a pattern and a document that are the same
// graph, numbered by the query in one order and by the parse in another —
// come out of the solver up to a few ulps apart, and the side that rounded
// down must not lose the comparison. It is applied to the query: plan
// hands out relaxed bounds, so Contains and scanBounds stay exact
// comparisons and stored keys never change. DESIGN.md "Failure 3"
// derives the size: the dense solver's backward error at denseEigenLimit
// vertices is below 1e-12 relative; a tolerance can only add candidates,
// and at 1e-9 the experiments' pruning power does not move.
func slack(sigma float64) float64 { return 1e-9 * (1 + math.Abs(sigma)) }

// relaxed returns the features a query with features f is compared with:
// σ shrunk by slack, so an entry within rounding of f contains it. Query
// features are finite (oversize ones exist on entries only).
func (f Features) relaxed() Features {
	return Features{Sigma: f.Sigma - slack(f.Sigma)}
}

// oversizeFeatures is the artificial always-candidate range.
func oversizeFeatures() Features {
	return Features{Sigma: math.Inf(1), Oversize: true, Sketch: fullSketch}
}

// pairSketch returns the sketch bit of the edge pair (parent, child), or
// every bit for a pair the encoder does not hold: no unit holds it either,
// so a sketch that takes it in can only keep fewer units.
func pairSketch(enc *matrix.EdgeEncoder, parent, child uint32) uint32 {
	w, ok := enc.Lookup(parent, child)
	if !ok {
		return fullSketch
	}
	return pairBit(w)
}

// graphSketch returns the sketch of the edge pairs of g.
func graphSketch(g *bisim.Graph, enc *matrix.EdgeEncoder) uint32 {
	var sk uint32
	for _, v := range g.Vertices {
		for _, c := range v.Children {
			sk |= pairSketch(enc, v.Label, c.Label)
		}
	}
	return sk
}

// denseEigenLimit is the vertex count up to which the dense O(n³) solver
// is used; larger graphs switch to sparse power iteration with a small
// upward safety margin (queries are always tiny and therefore always take
// the exact dense path, so the margin cannot introduce false negatives).
const denseEigenLimit = 300

// graphFeatures computes the features of a bisimulation graph. With
// assign=true unseen edge label pairs are added to the encoder (index
// construction); with assign=false an unseen pair reports ok=false,
// meaning the pattern cannot occur in the indexed data.
func graphFeatures(g *bisim.Graph, enc *matrix.EdgeEncoder, assign bool) (Features, bool, error) {
	mg := g.MatrixGraph()
	if n := mg.NumVertices(); n > denseEigenLimit {
		edges, ok := matrix.BuildEdges(mg, enc, assign)
		if !ok {
			return Features{}, false, nil
		}
		return Features{Sigma: eigen.SafetyMargin(eigen.SkewMaxSparse(n, edges))}, true, nil
	}
	m, ok := matrix.BuildSkew(mg, enc, assign)
	if !ok {
		return Features{}, false, nil
	}
	sigma, err := eigen.SkewMax(m)
	if err != nil {
		return Features{}, false, fmt.Errorf("core: eigenvalues: %w", err)
	}
	return Features{Sigma: sigma}, true, nil
}

// subpatternFeatures computes the features — σ and the pair sketch — of
// the depth-limited subpattern rooted at vertex v, falling back to the
// artificial range when the unfolding exceeds the edge budget. Every pair of
// the record's graph was assigned at the pipeline's merge point, and the
// encoder is read-only across workers: a missing pair is an internal
// invariant violation, not a data property.
func subpatternFeatures(v *bisim.Vertex, depthLimit, budget int, enc *matrix.EdgeEncoder) (Features, error) {
	g, ok, err := bisim.Subpattern(v, depthLimit, budget)
	if err != nil {
		return Features{}, err
	}
	if !ok {
		return oversizeFeatures(), nil
	}
	f, ok, err := graphFeatures(g, enc, false)
	if err != nil {
		return Features{}, err
	}
	if !ok {
		return Features{}, fmt.Errorf("core: internal: subpattern uses an edge pair missing after pre-assignment")
	}
	f.Sketch = graphSketch(g, enc)
	return f, nil
}

// valueHasher implements the paper's §4.6 mapping of PCDATA into the small
// label range (α, α+β], where α is the largest element label ID.
type valueHasher struct {
	alpha uint32
	beta  uint32
}

func (h valueHasher) hash(value string) uint32 {
	f := fnv.New32a()
	// Writes to an fnv hash never fail.
	_, _ = f.Write([]byte(value))
	return h.alpha + 1 + f.Sum32()%h.beta
}

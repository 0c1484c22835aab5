package core

import (
	"math"

	"github.com/fix-index/fix/internal/rtree"
	"github.com/fix-index/fix/internal/storage"
	"github.com/fix-index/fix/internal/xpath"
)

// FeatureRTree is the paper's §8 future-work variant: the same feature
// keys held in a three-dimensional R-tree instead of a B-tree. The
// containment search becomes one box query
//
//	label ∈ [l, l], λmax ∈ [q.max, +inf), λmin ∈ (-inf, q.min]
//
// so highly selective queries avoid walking the B-tree's λmax tail within
// a label partition.
type FeatureRTree struct {
	ix *Index
	rt *rtree.Tree
}

// BuildFeatureRTree bulk-loads the current index entries into an R-tree.
func (ix *Index) BuildFeatureRTree() (*FeatureRTree, error) {
	rt := rtree.New()
	var bad error
	err := ix.bt.Scan(nil, nil, func(k, v []byte) bool {
		ev, ok := decodeValue(v)
		if !ok {
			bad = errBadValue(k, v)
			return false
		}
		ek := decodeKey(k)
		rt.Insert(rtree.Entry{
			Box:  rtree.Point([rtree.Dims]float64{float64(ek.label), ek.max, ek.min}),
			Data: uint64(ev.primary),
		})
		return true
	})
	if err == nil {
		err = bad
	}
	if err != nil {
		return nil, err
	}
	return &FeatureRTree{ix: ix, rt: rt}, nil
}

// Len returns the number of indexed entries.
func (f *FeatureRTree) Len() int { return f.rt.Len() }

// NodesVisited exposes the R-tree search-effort counter.
func (f *FeatureRTree) NodesVisited() int64 { return f.rt.NodesVisited() }

// ResetStats zeroes the search-effort counter.
func (f *FeatureRTree) ResetStats() { f.rt.ResetStats() }

// Candidates runs the pruning phase through the R-tree. The candidate set
// is identical to Index.Candidates; only the search structure differs.
func (f *FeatureRTree) Candidates(path *xpath.Path) ([]Candidate, error) {
	p, err := f.ix.plan(path)
	if err != nil {
		return nil, err
	}
	if p.empty {
		return nil, nil
	}
	labelLo, labelHi := 0.0, math.MaxFloat64
	if p.labelOK {
		labelLo, labelHi = float64(p.topLabel), float64(p.topLabel)
	}
	// The primary twig constrains the box; additional twigs (collection
	// indexes) are checked per hit exactly like the B-tree path.
	q := rtree.Box{
		Min: [rtree.Dims]float64{labelLo, p.feats[0].Max, math.Inf(-1)},
		Max: [rtree.Dims]float64{labelHi, math.Inf(1), p.feats[0].Min},
	}
	var cands []Candidate
	f.rt.Search(q, func(e rtree.Entry) bool {
		entry := Features{Min: e.Box.Min[2], Max: e.Box.Min[1]}
		for _, tf := range p.feats {
			if !entry.Contains(tf) {
				return true
			}
		}
		cands = append(cands, Candidate{Primary: storage.Pointer(e.Data)})
		return true
	})
	return cands, nil
}

package core

import (
	"context"
	"fmt"
	"math"

	"github.com/fix-index/fix/internal/storage"
	"github.com/fix-index/fix/internal/xmltree"
	"github.com/fix-index/fix/internal/xpath"
)

// SketchStudy is the ablation of the pair sketch's width (fixbench -exp
// sketch): what a chunk sketch of k bits would keep of a query's σ
// candidates, for widths other than the one the index stores. It holds,
// per chunk of a frozen index, the EdgeEncoder weights of the edge pairs
// its postings' units contain, recomputed from the heap, so any width is
// a fold of them: the pair of weight w sets bit (w−1) mod k, as pairBit
// does for k = sketchBits.
type SketchStudy struct {
	g      *Generation
	chunks []studyChunk
	of     map[storage.Pointer]int // posting → its chunk
}

type studyChunk struct {
	full  bool // oversize units: every bit at every width
	pairs []int32
}

// NewSketchStudy reads every chunk of g's index and every posting's unit.
// It is an offline tool: the work is one walk of each unit, a subtree of
// the heap to the depth limit.
func NewSketchStudy(g *Generation) (*SketchStudy, error) {
	if g.view == nil {
		return nil, fmt.Errorf("%w: B-tree view unavailable", ErrCorrupt)
	}
	s := &SketchStudy{g: g, of: make(map[storage.Pointer]int, g.entries)}
	var bad error
	err := g.view.Scan(nil, nil, func(k, v []byte) bool {
		if len(k) != keySize {
			bad = errBadKey(k)
			return false
		}
		c := studyChunk{full: math.IsInf(decodeKey(k).sigma, 1)}
		seen := map[int32]bool{}
		r := openPostings(keyPointer(k), v)
		for r.next() {
			s.of[r.ptr] = len(s.chunks)
			if bad = g.ix.unitPairs(r.ptr, func(w int32) {
				if !seen[w] {
					seen[w] = true
					c.pairs = append(c.pairs, w)
				}
			}); bad != nil {
				return false
			}
		}
		if !r.ok() {
			bad = errBadValue(k, v)
			return false
		}
		s.chunks = append(s.chunks, c)
		return true
	})
	if err == nil {
		err = bad
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// StoredBits returns the width of the sketches the index stores.
func (s *SketchStudy) StoredBits() int { return sketchBits }

// Chunks returns the number of chunks of the index.
func (s *SketchStudy) Chunks() int { return len(s.chunks) }

// Kept returns, for each width k of ks, how many of the σ candidates of
// pq, prepared on the study's generation and Covered, a k-bit sketch per
// chunk keeps; k = 0 keeps them all.
func (s *SketchStudy) Kept(ctx context.Context, pq *Prepared, ks []int) ([]int, error) {
	ix := s.g.ix
	if !pq.Covered() {
		return nil, pq.errNotCovered()
	}
	sigmaOnly := *pq.plan
	sigmaOnly.sketch = 0
	cands, _, _, err := s.g.candidates(ctx, &sigmaOnly, Limits{}, nil, nil)
	if err != nil {
		return nil, err
	}
	var query []int32
	missing := false
	twigs := xpath.Decompose(pq.tree)
	if ix.opts.DepthLimit > 0 {
		twigs = twigs[:1]
	}
	for _, tw := range twigs {
		pn, ok := ix.resolve(tw.Root, nil)
		if !ok {
			break // the plan is empty, and so is cands
		}
		ix.twigPairs(pn, func(parent, child uint32) {
			w, ok := ix.enc.Lookup(parent, child)
			missing = missing || !ok
			query = append(query, w)
		})
	}
	kept := make([]int, len(ks))
	for i, k := range ks {
		if k == 0 {
			kept[i] = len(cands)
			continue
		}
		q := fold(query, k)
		if missing {
			q = 1<<k - 1 // as pairSketch: only a full sketch passes
		}
		for _, c := range cands {
			ch := &s.chunks[s.of[c.Primary]]
			if ch.full || q&^fold(ch.pairs, k) == 0 {
				kept[i]++
			}
		}
	}
	return kept, nil
}

// fold returns the k-bit sketch of the pairs of weights ws.
func fold(ws []int32, k int) uint64 {
	var sk uint64
	for _, w := range ws {
		sk |= 1 << (uint64(w-1) % uint64(k))
	}
	return sk
}

// unitPairs calls fn with the weight of every edge pair of the unit at p:
// the subtree to the depth limit, text children as their value hash on a
// value index. Pairs repeat.
func (ix *Index) unitPairs(p storage.Pointer, fn func(w int32)) error {
	cur, ref, err := ix.store.ReadSubtree(p)
	if err != nil {
		return err
	}
	var walk func(r xmltree.Ref, level int)
	walk = func(r xmltree.Ref, level int) {
		if ix.opts.DepthLimit > 0 && level >= ix.opts.DepthLimit {
			return
		}
		parent := cur.LabelID(r)
		for it := cur.Children(r); ; {
			c, ok := it.Next()
			if !ok {
				return
			}
			label, isText, body, end := cur.Span(c)
			switch {
			case !isText:
				walk(c, level+1)
			case ix.opts.Values:
				label = ix.vh.hash(string(cur.Buf[body:end]))
			default:
				continue
			}
			if w, ok := ix.enc.Lookup(parent, label); ok {
				fn(w)
			}
		}
	}
	walk(ref, 1)
	return nil
}

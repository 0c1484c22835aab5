package cfg

// BitSet is a fixed-width bit vector used as the fact domain of the
// dataflow solvers: one bit per tracked resource or lock.
type BitSet []uint64

// NewBitSet returns an empty set with capacity for n bits.
func NewBitSet(n int) BitSet { return make(BitSet, (n+63)/64) }

// Set sets bit i.
func (s BitSet) Set(i int) { s[i/64] |= 1 << (uint(i) % 64) }

// Clear clears bit i.
func (s BitSet) Clear(i int) { s[i/64] &^= 1 << (uint(i) % 64) }

// Has reports whether bit i is set.
func (s BitSet) Has(i int) bool { return s[i/64]&(1<<(uint(i)%64)) != 0 }

// Or unions other into s and reports whether s changed.
func (s BitSet) Or(other BitSet) bool {
	changed := false
	for i := range s {
		n := s[i] | other[i]
		if n != s[i] {
			s[i] = n
			changed = true
		}
	}
	return changed
}

// Clone returns an independent copy of s.
func (s BitSet) Clone() BitSet {
	c := make(BitSet, len(s))
	copy(c, s)
	return c
}

// Forward solves a forward may-analysis over g with union at merge
// points: in[entry] = ∅, in[b] = ⋃ out[pred], out[b] = transfer(b,
// in[b]). The transfer function must be monotone (it may only add or
// remove bits as a pure function of the block and its input) and must
// not retain or mutate the BitSet it is handed beyond returning a
// derived value; nbits is the domain width. Blocks unreachable from
// Entry keep empty facts.
func Forward(g *Graph, nbits int, transfer func(b *Block, in BitSet) BitSet) (in, out map[*Block]BitSet) {
	in = make(map[*Block]BitSet, len(g.Blocks))
	out = make(map[*Block]BitSet, len(g.Blocks))
	for _, b := range g.Blocks {
		in[b] = NewBitSet(nbits)
		out[b] = NewBitSet(nbits)
	}
	// Seed the worklist with every block reachable from Entry, in
	// discovery order, so blocks whose input never changes (it stays
	// empty) still apply their own gen effects once.
	var work []*Block
	queued := map[*Block]bool{}
	var visit func(b *Block)
	visit = func(b *Block) {
		if queued[b] {
			return
		}
		queued[b] = true
		work = append(work, b)
		for _, s := range b.Succs {
			visit(s)
		}
	}
	visit(g.Entry)
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b] = false
		newOut := transfer(b, in[b].Clone())
		if bitsEqual(newOut, out[b]) {
			continue
		}
		out[b] = newOut
		for _, s := range b.Succs {
			if in[s].Or(newOut) && !queued[s] {
				queued[s] = true
				work = append(work, s)
			}
		}
	}
	return in, out
}

// bitsEqual reports whether two same-width sets are identical.
func bitsEqual(a, b BitSet) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

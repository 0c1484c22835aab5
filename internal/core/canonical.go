package core

import (
	"sort"

	"github.com/fix-index/fix/internal/bisim"
	"github.com/fix-index/fix/internal/xpath"
)

// Query-pattern canonicalization.
//
// The paper's pruning rests on Theorem 3 (eigenvalue interlacing for
// induced subgraphs), but a twig match (Definition 4) is a homomorphism:
// two query nodes may map to the same data vertex. //b[a[c]][a] matches
// <b><a><c/></a></b> with both predicates witnessed by the same child, yet
// the query's pattern graph has more edges than the document's, its σmax
// is larger, and the paper's test would wrongly prune the document — a
// genuine false negative in the scheme as published.
//
// We therefore canonicalize the pruning pattern so its match image is
// injective:
//
//  1. (exact) a predicate branch subsumed by a same-label sibling is
//     dropped: [a[c]][a] ≡ [a[c]] existentially;
//  2. (weakening) of any remaining same-label sibling group, only the
//     largest branch is kept — the weakened pattern matches wherever the
//     original does, so candidates remain complete; refinement always
//     runs the full original query;
//  3. (weakening) the same rule is applied to same-label pairs that are
//     not in ancestor-descendant relation anywhere in the twig
//     ("cousins"), since only ancestor-related same-label nodes are
//     guaranteed distinct images (a proper ancestor's class has strictly
//     greater height).
//
// After canonicalization every pair of pattern vertices has either
// distinct labels or is ancestor-related, so a match embeds the pattern
// injectively into the entry's bisimulation graph.

// pnode is a label-resolved query-pattern node. Value leaves arrive here
// already hashed, so collisions merge exactly as they do in the data.
type pnode struct {
	label    uint32
	children []*pnode
	parent   *pnode
}

// size returns the number of nodes in the subtree.
func (p *pnode) size() int {
	n := 1
	for _, c := range p.children {
		n += c.size()
	}
	return n
}

// resolve converts a twig query tree into a pnode tree, hashing value
// leaves and resolving labels. ok is false if a label does not occur in
// the data, which proves the query empty.
func (ix *Index) resolve(n *xpath.QNode, parent *pnode) (*pnode, bool) {
	p := &pnode{parent: parent}
	if n.IsValue {
		if !ix.opts.Values {
			// Without a value index the constraint is left to
			// refinement; dropping the leaf keeps the pattern a
			// subpattern of the indexed one.
			return nil, true
		}
		p.label = ix.vh.hash(n.Value)
		return p, true
	}
	id, ok := ix.dict.Lookup(n.Name)
	if !ok {
		return nil, false
	}
	p.label = id
	for _, c := range n.Children {
		cp, ok := ix.resolve(c, p)
		if !ok {
			return nil, false
		}
		if cp != nil {
			p.children = append(p.children, cp)
		}
	}
	return p, true
}

// subsumes reports whether every document matching b at its root also
// matches a there: same label and every child constraint of a is
// entailed by some child constraint of b.
func subsumes(a, b *pnode) bool {
	if a.label != b.label {
		return false
	}
	for _, ac := range a.children {
		found := false
		for _, bc := range b.children {
			if subsumes(ac, bc) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// canonicalize rewrites the pattern per the rules above.
func canonicalize(root *pnode) {
	dedupeSiblings(root)
	pruneCousins(root)
}

func dedupeSiblings(p *pnode) {
	for _, c := range p.children {
		dedupeSiblings(c)
	}
	// Group children by label, keeping one representative per group:
	// prefer a branch that subsumes the others; otherwise the largest.
	byLabel := make(map[uint32][]*pnode)
	var order []uint32
	for _, c := range p.children {
		if _, ok := byLabel[c.label]; !ok {
			order = append(order, c.label)
		}
		byLabel[c.label] = append(byLabel[c.label], c)
	}
	var kept []*pnode
	for _, l := range order {
		group := byLabel[l]
		best := group[0]
		for _, c := range group[1:] {
			switch {
			case subsumes(best, c):
				// best is entailed by c: c is the stronger branch.
				best = c
			case subsumes(c, best):
				// keep best.
			case c.size() > best.size():
				best = c
			}
		}
		kept = append(kept, best)
	}
	p.children = kept
}

// pruneCousins removes same-label nodes that are not ancestor-related,
// keeping the larger subtree's occurrence.
func pruneCousins(root *pnode) {
	for {
		var all []*pnode
		var collect func(p *pnode)
		collect = func(p *pnode) {
			all = append(all, p)
			for _, c := range p.children {
				collect(c)
			}
		}
		collect(root)
		victim := (*pnode)(nil)
		for i := 0; i < len(all) && victim == nil; i++ {
			for j := i + 1; j < len(all); j++ {
				a, b := all[i], all[j]
				if a.label != b.label || isAncestor(a, b) || isAncestor(b, a) {
					continue
				}
				// Drop the smaller branch (ties: the later one).
				if a.size() < b.size() {
					victim = a
				} else {
					victim = b
				}
				break
			}
		}
		if victim == nil {
			return
		}
		removeChild(victim.parent, victim)
	}
}

func isAncestor(a, b *pnode) bool {
	for p := b.parent; p != nil; p = p.parent {
		if p == a {
			return true
		}
	}
	return false
}

func removeChild(parent, child *pnode) {
	if parent == nil {
		return
	}
	for i, c := range parent.children {
		if c == child {
			parent.children = append(parent.children[:i], parent.children[i+1:]...)
			return
		}
	}
}

// patternGraph builds the bisimulation graph of a canonical pattern.
func patternGraph(root *pnode) (*bisim.Graph, error) {
	var events []bisim.Event
	var emit func(p *pnode)
	emit = func(p *pnode) {
		events = append(events, bisim.Event{Open: true, Label: p.label})
		// Deterministic child order keeps features reproducible.
		sorted := append([]*pnode(nil), p.children...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].label < sorted[j].label })
		for _, c := range sorted {
			emit(c)
		}
		events = append(events, bisim.Event{Open: false, Label: p.label})
	}
	emit(root)
	return bisim.Build(&eventSlice{events: events}, nil)
}

// clone deep-copies a pattern tree.
func (p *pnode) clone(parent *pnode) *pnode {
	cp := &pnode{label: p.label, parent: parent}
	for _, c := range p.children {
		cp.children = append(cp.children, c.clone(cp))
	}
	return cp
}

// soundFeatures computes the default, provably complete pruning bound:
// the maximum of
//
//   - the ≤3-vertex induced bound over the full canonical pattern
//     (soundBound), and
//   - the full σmax of the largest "verified-exact" subpattern: a
//     subtree-closed fragment in which every non-adjacent vertex pair has
//     a label pair that never occurs as an edge in the data, so a match
//     image is exactly the pattern (an induced subgraph) and Theorem 3
//     applies as stated.
func (ix *Index) soundFeatures(pn *pnode, g *bisim.Graph) (Features, bool, error) {
	b3, ok := ix.soundBound(g)
	if !ok {
		return Features{}, false, nil
	}
	exact := pn.clone(nil)
	ix.shrinkToVerified(exact)
	eg, err := patternGraph(exact)
	if err != nil {
		return Features{}, false, err
	}
	fe, ok, err := graphFeatures(eg, ix.enc, false)
	if err != nil {
		return Features{}, false, err
	}
	if ok && fe.Sigma > b3.Sigma {
		return fe, true, nil
	}
	return b3, true, nil
}

// shrinkToVerified drops subtrees until no non-adjacent vertex pair has a
// label pair present in the edge encoder (in either direction). The
// remaining pattern's match image cannot contain edges beyond the pattern
// edges, so it is induced.
func (ix *Index) shrinkToVerified(root *pnode) {
	for {
		var all []*pnode
		var collect func(p *pnode)
		collect = func(p *pnode) {
			all = append(all, p)
			for _, c := range p.children {
				collect(c)
			}
		}
		collect(root)
		var victim *pnode
	search:
		for i := 0; i < len(all); i++ {
			for j := i + 1; j < len(all); j++ {
				u, v := all[i], all[j]
				if u == v.parent || v == u.parent {
					continue // a pattern edge: allowed
				}
				_, uv := ix.enc.Lookup(u.label, v.label)
				_, vu := ix.enc.Lookup(v.label, u.label)
				if !uv && !vu {
					continue
				}
				// Extra image edge possible between these two: drop the
				// descendant, or the smaller of unrelated subtrees.
				switch {
				case isAncestor(u, v):
					victim = v
				case isAncestor(v, u):
					victim = u
				case u.size() < v.size():
					victim = u
				default:
					victim = v
				}
				break search
			}
		}
		if victim == nil {
			return
		}
		removeChild(victim.parent, victim)
	}
}

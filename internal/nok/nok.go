// Package nok implements a navigational twig matcher in the role of the
// paper's NoK operator [32]: it evaluates twig queries (extended with
// descendant axes and value-equality predicates) directly over the binary
// subtree encoding in primary storage, with no index support. FIX uses it
// as the refinement processor on candidate subtrees (§5); the experiments
// also run it standalone as the unindexed baseline (§6.3).
//
// Evaluation is obligation-directed: it visits only the nodes the twig
// can bind. The first pass walks down from the candidate root carrying
// two bitmasks of query nodes (twig queries are tiny) — want, the query
// nodes the parent's binding still needs on the child axis, and pend,
// those some ancestor's binding needs on the descendant axis. A node is
// decoded only when it is reached under a non-empty obligation; its
// children are entered only when a query node that carries its label has
// children of its own to satisfy, and every other subtree is stepped over
// in O(1) through the length prefix of the encoding. For a child-axis
// twig of height h the pass therefore touches only nodes within depth h
// of the root, however large the subtree; a descendant step keeps exact
// semantics by staying in pend all the way down, and simply prunes less.
// On the way back up each node's satisfaction mask is the AND, over the
// bound query node's children, of the OR of the child masks. A node's
// candidate query nodes come from one lookup of its label in a table of
// label → query-node mask.
//
// A node also stops walking its children as soon as every query node it
// binds is satisfied, when nothing further down can change the answer: no
// descendant-axis obligation of an ancestor is pending, and no query node
// it binds has the output strictly below it (an existence check has no
// output to find). So /a[b] over an <a> whose first child is <b/> decodes
// two nodes however many siblings follow.
//
// The nodes that satisfied a query node on the path from the query root
// to the output node (and their ancestors) are recorded in one preorder
// slice of (ref, mask, next-sibling) entries; nothing else is ever read
// back. The second pass walks that slice — never the document — top-down
// along the same path, keeping only bindings witnessed by a full
// embedding and counting the distinct bindings of the output node in
// document order. It is skipped outright when the root obligation is
// unmet, and existence checks neither record entries nor run it.
//
// A compiled Query is immutable after Compile. Evaluation state (the
// entry slice, the budget countdown and its latch) lives in an evalState
// drawn from a package pool for the duration of one Pass — every
// candidate of one query's refinement, or the single subtree of a
// one-shot call such as Count — so one Query may be shared by any number
// of concurrent goroutines and steady-state evaluation allocates nothing.
package nok

import (
	"context"
	"fmt"
	"math/bits"
	"sync"

	"github.com/fix-index/fix/internal/xmltree"
	"github.com/fix-index/fix/internal/xpath"
)

// maxQueryNodes bounds the number of query-tree nodes (bitmask width).
const maxQueryNodes = 64

// qnode is a flattened query-tree node. Bit i of a mask stands for query
// node i.
type qnode struct {
	label     uint32 // element label id; 0 for value leaves
	value     string // text a value leaf must equal
	childMask uint64 // this node's children on the child axis
	descMask  uint64 // this node's children on the descendant axis
}

// Query is a compiled twig query ready for repeated evaluation.
type Query struct {
	nodes      []qnode  // preorder; node 0 is the query root
	byLabel    []uint64 // the element query nodes of each label id
	valueMask  uint64   // the value leaves
	outputMask uint64   // the output node
	// pathMask holds the output node and its ancestors, the query nodes
	// the second pass walks; aboveMask the ancestors alone, which must see
	// every child of a node they bind to find every output binding.
	pathMask, aboveMask uint64
	rootDesc            bool // the query's leading axis is //
	unsatisfiable       bool // a query label does not occur in the dictionary
}

// Compile flattens and label-resolves the query tree. A query whose labels
// never occur in the data is still compiled; it simply matches nothing.
func Compile(root *xpath.QNode, dict *xmltree.Dict) (*Query, error) {
	if root == nil {
		return nil, fmt.Errorf("nok: nil query")
	}
	q := &Query{rootDesc: root.Axis == xpath.Descendant}
	// add flattens the subtree at n and reports whether it holds the
	// output node.
	var add func(n *xpath.QNode) (int, bool, error)
	add = func(n *xpath.QNode) (int, bool, error) {
		if len(q.nodes) >= maxQueryNodes {
			return 0, false, fmt.Errorf("nok: query exceeds %d nodes", maxQueryNodes)
		}
		idx := len(q.nodes)
		bit := uint64(1) << uint(idx)
		qn := qnode{value: n.Value}
		if n.IsValue {
			q.valueMask |= bit
		} else {
			id, ok := dict.Lookup(n.Name)
			if !ok {
				q.unsatisfiable = true
			}
			qn.label = id
		}
		if n.Output {
			q.outputMask |= bit
		}
		q.nodes = append(q.nodes, qn)
		below := false
		for _, c := range n.Children {
			ci, out, err := add(c)
			if err != nil {
				return 0, false, err
			}
			below = below || out
			if c.Axis == xpath.Descendant {
				q.nodes[idx].descMask |= 1 << uint(ci)
			} else {
				q.nodes[idx].childMask |= 1 << uint(ci)
			}
		}
		if below {
			q.aboveMask |= bit
		}
		if below || n.Output {
			q.pathMask |= bit
		}
		return idx, below || n.Output, nil
	}
	if _, _, err := add(root); err != nil {
		return nil, err
	}
	for i, qn := range q.nodes {
		if q.valueMask&(1<<uint(i)) != 0 {
			continue
		}
		if int(qn.label) >= len(q.byLabel) {
			q.byLabel = append(q.byLabel, make([]uint64, int(qn.label)+1-len(q.byLabel))...)
		}
		q.byLabel[qn.label] |= 1 << uint(i)
	}
	return q, nil
}

// candidates returns the element query nodes among m that carry label.
func (q *Query) candidates(label uint32, m uint64) uint64 {
	if int(label) < len(q.byLabel) {
		return m & q.byLabel[label]
	}
	return 0
}

// satisfied returns the query nodes among cand whose child and descendant
// obligations the children's masks meet.
func (q *Query) satisfied(cand, childOwn, childSub uint64) (own uint64) {
	for m := cand; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if qn := &q.nodes[i]; qn.childMask&^childOwn == 0 && qn.descMask&^childSub == 0 {
			own |= 1 << uint(i)
		}
	}
	return own
}

// entry records one node the first pass found worth remembering: it, or
// something below it, satisfies a query node it was asked about. Entries
// are appended in preorder, so the entries of a node's subtree follow it
// contiguously up to next, which is also where its next sibling starts.
type entry struct {
	ref  xmltree.Ref
	next int32
	own  uint64 // bit i set: the node satisfies query node i's subtree
}

// evalState carries the evaluations of one Pass. States are pooled:
// Pass.Release zeroes everything but the capacity of ents and outs.
type evalState struct {
	c xmltree.Cursor
	q *Query
	// keep holds the query nodes whose bindings the first pass records,
	// and above those that must see every child: the query's path and
	// above masks on an enumerating evaluation, none on an existence
	// check.
	keep, above uint64
	ents        []entry
	outs        []xmltree.Ref // the output bindings the second pass found
	visited     int           // nodes the first pass decoded

	// budget caps the first pass's node visits and polls the query
	// context: the caller's, or own; exceeded holds the first budget or
	// context error, so the recursion unwinds without doing further
	// work.
	budget   *Budget
	own      Budget
	exceeded error
}

var statePool = sync.Pool{New: func() any { return new(evalState) }}

// pass1 decodes the node at r, which was reached owing want on the child
// axis and pend on the descendant axis, and returns the query nodes among
// want|pend whose subtree constraints it satisfies (own), own united with
// everything satisfied below it (sub), and the offset of its next sibling.
func (s *evalState) pass1(r xmltree.Ref, want, pend uint64) (own, sub uint64, end xmltree.Ref) {
	label, isText, body, end, ok := s.c.QuickSpan(r)
	if !ok {
		label, isText, body, end = s.c.Span(r)
	}
	if err := s.budget.charge(); err != nil {
		s.exceeded = err
		return 0, 0, end
	}
	s.visited++
	q := s.q
	if isText {
		for m := (want | pend) & q.valueMask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			if string(s.c.Buf[body:end]) == q.nodes[i].value { // compared in place
				own |= 1 << uint(i)
			}
		}
		if own&s.keep != 0 {
			s.ents = append(s.ents, entry{ref: r, next: int32(len(s.ents) + 1), own: own})
		}
		return own, own, end
	}
	// cand: the query nodes this element may bind; cwant and cpend: what
	// its children are reached owing.
	cand := q.candidates(label, want|pend)
	var cwant uint64
	cpend := pend
	for m := cand; m != 0; m &= m - 1 {
		qn := &q.nodes[bits.TrailingZeros64(m)]
		cwant |= qn.childMask
		cpend |= qn.descMask
	}
	if cwant|cpend == 0 {
		// Nothing below can bind: every candidate is a query leaf, so the
		// whole subtree is stepped over.
		if cand&s.keep != 0 {
			s.ents = append(s.ents, entry{ref: r, next: int32(len(s.ents) + 1), own: cand})
		}
		return cand, cand, end
	}
	// settle: once every candidate is satisfied, the rest of the children
	// cannot change what this node reports.
	settle := pend == 0 && cand&s.above == 0
	k := len(s.ents)
	s.ents = append(s.ents, entry{ref: r})
	var childOwn, childSub uint64
	for pos := body; pos < end && s.exceeded == nil; {
		var o, u uint64
		o, u, pos = s.pass1(pos, cwant, cpend)
		childOwn |= o
		childSub |= u
		if settle && q.satisfied(cand, childOwn, childSub) == cand {
			break
		}
	}
	own = q.satisfied(cand, childOwn, childSub)
	sub = own | childSub
	if sub&s.keep == 0 {
		s.ents = s.ents[:k] // nothing here for the second pass
	} else {
		s.ents[k].own, s.ents[k].next = own, int32(len(s.ents))
	}
	return own, sub, end
}

// pass2 walks the recorded entries top-down from entry k, whose parent's
// witnessed bindings need want on the child axis and pend on the
// descendant axis, and collects every entry that binds the output node
// in a full embedding. Each entry is reached at most once, in preorder,
// so the outputs are distinct and in document order.
func (s *evalState) pass2(k int, want, pend uint64) {
	e := s.ents[k]
	q := s.q
	wit := e.own & (want | pend)
	if wit&q.outputMask != 0 {
		s.outs = append(s.outs, e.ref)
	}
	var cwant uint64
	cpend := pend
	for m := wit; m != 0; m &= m - 1 {
		qn := &q.nodes[bits.TrailingZeros64(m)]
		cwant |= qn.childMask & q.pathMask
		cpend |= qn.descMask & q.pathMask
	}
	if cwant|cpend == 0 {
		return
	}
	for c := k + 1; c < int(e.next); c = int(s.ents[c].next) {
		s.pass2(c, cwant, cpend)
	}
}

// Pass evaluates one query over a sequence of subtrees — the candidates
// of one query's refinement — with one pooled evaluation state and one
// budget for all of them, so an evaluation costs only the match itself.
// A Pass is a value: starting one allocates nothing. It is not safe for
// concurrent use, and the caller calls Release after its last
// evaluation.
type Pass struct{ s *evalState }

// NewPass starts a pass of q whose node visits, across all of its
// evaluations, are charged to a budget of maxNodes (<= 0: unlimited)
// drawn against ctx, which is polled on the first visit and once every
// budgetChunk visits after.
func (q *Query) NewPass(ctx context.Context, maxNodes int64) Pass {
	p := q.pass(nil)
	p.s.own = Budget{ctx: ctx, limit: maxNodes}
	return p
}

// pass starts a pass charged to b; a nil b is an unlimited budget with no
// context.
func (q *Query) pass(b *Budget) Pass {
	s := statePool.Get().(*evalState)
	s.q, s.budget = q, b
	if b == nil {
		s.budget = &s.own
	}
	return Pass{s}
}

// Release returns the pass's state to the pool, dropping its references
// to the caller's buffers. No evaluation of the pass may follow.
func (p Pass) Release() {
	s := p.s
	*s = evalState{ents: s.ents[:0], outs: s.outs[:0]}
	statePool.Put(s)
}

// run evaluates the pass's query on the subtree at r: the first pass
// always, the second only when enumerate is set and the root obligation
// is met. The caller reads the results off the state.
func (p Pass) run(c xmltree.Cursor, r xmltree.Ref, enumerate bool) (matched bool) {
	s, q := p.s, p.s.q
	s.c, s.ents, s.outs, s.visited, s.exceeded = c, s.ents[:0], s.outs[:0], 0, nil
	s.keep, s.above = 0, 0
	if enumerate {
		s.keep, s.above = q.pathMask, q.aboveMask
	}
	var pend uint64
	if q.rootDesc {
		pend = 1 // any element of the subtree may bind the query root
	}
	own, sub, _ := s.pass1(r, 1, pend)
	if q.rootDesc {
		own = sub
	}
	matched = s.exceeded == nil && own&1 != 0
	if matched && enumerate {
		s.pass2(0, 1, pend)
	}
	return matched
}

// Exists reports whether the query matches the subtree rooted at r: with
// a // leading axis any element of the subtree may bind the query root;
// with a / leading axis only r itself may. It stops with the budget's
// error once the budget or the pass's context is exhausted.
func (p Pass) Exists(c xmltree.Cursor, r xmltree.Ref) (bool, error) {
	if p.s.q.unsatisfiable {
		return false, nil
	}
	matched := p.run(c, r, false)
	return matched, p.s.exceeded
}

// EvalBudget returns the number of distinct output-node matches in the
// subtree at r and the nodes the first pass visited, every one of them
// charged to the pass's budget. On exhaustion it returns ErrBudget (or
// the context's error) with the visits performed so far; the count is
// then meaningless and returned as zero — the second pass is not run,
// since the satisfaction masks are incomplete.
func (p Pass) EvalBudget(c xmltree.Cursor, r xmltree.Ref) (count, visited int, err error) {
	if p.s.q.unsatisfiable {
		return 0, 0, nil
	}
	p.run(c, r, true)
	return len(p.s.outs), p.s.visited, p.s.exceeded
}

// AppendOutputs is EvalBudget that appends the output bindings it
// counts, distinct and in document order, to outs; on an error it
// appends none.
func (p Pass) AppendOutputs(c xmltree.Cursor, r xmltree.Ref, outs []xmltree.Ref) (_ []xmltree.Ref, visited int, err error) {
	if p.s.q.unsatisfiable {
		return outs, 0, nil
	}
	p.run(c, r, true)
	if p.s.exceeded == nil {
		outs = append(outs, p.s.outs...)
	}
	return outs, p.s.visited, p.s.exceeded
}

// Exists is Pass.Exists for one subtree, with no budget.
func (q *Query) Exists(c xmltree.Cursor, r xmltree.Ref) bool {
	p := q.pass(nil)
	matched, _ := p.Exists(c, r)
	p.Release()
	return matched
}

// Outputs returns the distinct nodes (by offset, in document order) that
// bind the query's output node in some embedding rooted per the leading
// axis.
func (q *Query) Outputs(c xmltree.Cursor, r xmltree.Ref) []xmltree.Ref {
	p := q.pass(nil)
	outs, _, _ := p.AppendOutputs(c, r, nil)
	p.Release()
	return outs
}

// Count returns the number of distinct output-node matches.
func (q *Query) Count(c xmltree.Cursor, r xmltree.Ref) int {
	count, _ := q.Eval(c, r)
	return count
}

// Eval is Count with work accounting: it additionally reports how many
// nodes the first pass visited (decoded) — the unit of refinement work
// the observability layer records (obs.Trace.NodesVisited) and the unit
// a Budget charges. The visit count depends only on the query and the
// subtree.
func (q *Query) Eval(c xmltree.Cursor, r xmltree.Ref) (count, visited int) {
	count, visited, _ = q.EvalBudget(c, r, nil)
	return count, visited
}

// EvalBudget is Pass.EvalBudget for one subtree, charged to b, which may
// be shared by successive calls; a nil b behaves exactly like Eval.
func (q *Query) EvalBudget(c xmltree.Cursor, r xmltree.Ref, b *Budget) (count, visited int, err error) {
	p := q.pass(b)
	count, visited, err = p.EvalBudget(c, r)
	p.Release()
	return count, visited, err
}

// Package joins implements join-based twig query evaluation over the
// tagindex posting lists: the Stack-Tree structural join of Al-Khalifa et
// al. (the paper's reference [3]) applied bottom-up to compute satisfying
// element lists per query node, then top-down to enumerate witnessed
// output bindings. It is the "join-based" refinement/evaluation
// alternative of the paper's architecture (Figure 3); the experiments
// compare it against the navigational NoK operator (§6.3).
package joins

import (
	"fmt"

	"github.com/fix-index/fix/internal/experiments/internal/tagindex"
	"github.com/fix-index/fix/internal/xpath"
)

// ErrValuePredicate reports a query with value-equality predicates, which
// the structural evaluator does not handle (callers refine with NoK).
var ErrValuePredicate = fmt.Errorf("joins: value predicates require navigational refinement")

// Evaluator answers twig queries from a tag index alone.
type Evaluator struct {
	tags *tagindex.Index
}

// New returns an evaluator over the given tag index.
func New(tags *tagindex.Index) *Evaluator {
	return &Evaluator{tags: tags}
}

// SemiJoinAnc returns the ancestors (in list order) that contain at least
// one descendant from desc; childOnly restricts to parent-child. Both
// inputs must be in document order. It is the ancestor-output direction
// of the Stack-Tree structural join.
func SemiJoinAnc(anc, desc []tagindex.Posting, childOnly bool) []tagindex.Posting {
	matched := make([]bool, len(anc))
	stackJoin(anc, desc, childOnly, func(ai, di int) { matched[ai] = true })
	out := make([]tagindex.Posting, 0, len(anc))
	for i, m := range matched {
		if m {
			out = append(out, anc[i])
		}
	}
	return out
}

// SemiJoinDesc returns the descendants that have at least one ancestor
// (or parent, with childOnly) in anc.
func SemiJoinDesc(anc, desc []tagindex.Posting, childOnly bool) []tagindex.Posting {
	matched := make([]bool, len(desc))
	stackJoin(anc, desc, childOnly, func(ai, di int) { matched[di] = true })
	out := make([]tagindex.Posting, 0, len(desc))
	for i, m := range matched {
		if m {
			out = append(out, desc[i])
		}
	}
	return out
}

// stackJoin runs the Stack-Tree merge: one pass over both document-
// ordered lists with a stack of currently-open ancestors. emit is called
// for every (ancestor index, descendant index) pair related by the axis.
// For the semi-join uses above the per-pair cost is amortized by the
// matched-flag short-circuit in the callers; the pass itself is
// O(|anc| + |desc| + pairs).
func stackJoin(anc, desc []tagindex.Posting, childOnly bool, emit func(ai, di int)) {
	var stack []int // indices into anc, innermost last
	ai := 0
	for di := 0; di < len(desc); di++ {
		d := desc[di]
		// Pop ancestors that end before d starts or belong to earlier
		// documents.
		for len(stack) > 0 {
			top := anc[stack[len(stack)-1]]
			if top.Rec < d.Rec || (top.Rec == d.Rec && top.End <= d.Start) {
				stack = stack[:len(stack)-1]
			} else {
				break
			}
		}
		// Push ancestors that start before d.
		for ai < len(anc) {
			a := anc[ai]
			if a.Rec < d.Rec || (a.Rec == d.Rec && a.Start < d.Start) {
				if a.Rec == d.Rec && d.Start < a.End {
					stack = append(stack, ai)
				}
				ai++
			} else {
				break
			}
		}
		// Every stacked ancestor contains d.
		for si := len(stack) - 1; si >= 0; si-- {
			a := anc[stack[si]]
			if a.Rec != d.Rec || a.End < d.End {
				continue
			}
			if childOnly {
				if a.Level+1 == d.Level {
					emit(stack[si], di)
				}
				continue
			}
			emit(stack[si], di)
		}
	}
}

// Count returns the number of distinct output-node matches of the twig
// query (value predicates are rejected with ErrValuePredicate).
func (e *Evaluator) Count(root *xpath.QNode) (int, error) {
	w, err := e.Witnessed(root)
	if err != nil {
		return 0, err
	}
	return len(w), nil
}

// Witnessed returns the postings binding the query's output node.
func (e *Evaluator) Witnessed(root *xpath.QNode) ([]tagindex.Posting, error) {
	if root == nil {
		return nil, fmt.Errorf("joins: nil query")
	}
	sat := make(map[*xpath.QNode][]tagindex.Posting)
	if err := e.satisfy(root, sat); err != nil {
		return nil, err
	}
	// Root axis filter.
	rootList := sat[root]
	if root.Axis == xpath.Child {
		filtered := rootList[:0:0]
		for _, p := range rootList {
			if p.Level == 0 {
				filtered = append(filtered, p)
			}
		}
		rootList = filtered
	}
	witnessed := map[*xpath.QNode][]tagindex.Posting{root: rootList}
	var down func(q *xpath.QNode)
	down = func(q *xpath.QNode) {
		for _, c := range q.Children {
			witnessed[c] = SemiJoinDesc(witnessed[q], sat[c], c.Axis == xpath.Child)
			down(c)
		}
	}
	down(root)
	var out []tagindex.Posting
	var collect func(q *xpath.QNode)
	collect = func(q *xpath.QNode) {
		if q.Output {
			out = append(out, witnessed[q]...)
		}
		for _, c := range q.Children {
			collect(c)
		}
	}
	collect(root)
	if out == nil && !hasOutput(root) {
		// Queries whose tree has no explicit output (e.g. single-step
		// paths built by hand) default to the root.
		out = rootList
	}
	return out, nil
}

func hasOutput(q *xpath.QNode) bool {
	found := false
	q.Walk(func(n *xpath.QNode) {
		if n.Output {
			found = true
		}
	})
	return found
}

// satisfy computes, bottom-up, the elements satisfying each query node's
// subtree constraints.
func (e *Evaluator) satisfy(q *xpath.QNode, sat map[*xpath.QNode][]tagindex.Posting) error {
	if q.IsValue {
		return ErrValuePredicate
	}
	list := e.tags.List(q.Name)
	for _, c := range q.Children {
		if err := e.satisfy(c, sat); err != nil {
			return err
		}
		list = SemiJoinAnc(list, sat[c], c.Axis == xpath.Child)
	}
	sat[q] = list
	return nil
}

package bisim

import (
	"errors"
	"io"
)

// This file implements the paper's BISIM-TRAVELER (§4.4): a depth-first
// walk of the bisimulation graph limited to a given depth, producing the
// event stream of the truncated unfolding. The truncated subgraph of a
// bisimulation graph is generally not itself a bisimulation graph (the
// cut introduces structural repetition), so GEN-SUBPATTERN feeds the
// traveler's events back through Build to obtain a proper bisimulation
// graph of the subpattern.

// traveler streams the unfolding of a vertex up to depthLimit levels.
// budget bounds the number of Open events emitted; exceeding it surfaces
// as ErrBudget so the caller can fall back to the artificial
// always-candidate features, σ = +Inf.
type traveler struct {
	depthLimit int
	budget     int
	opens      int
	stack      []travFrame
}

type travFrame struct {
	v      *Vertex
	opened bool
	next   int
}

// ErrBudget reports that an unfolding exceeded its event budget.
type budgetError struct{}

func (budgetError) Error() string { return "bisim: unfolding exceeded event budget" }

// ErrBudget is returned by the traveler when the depth-limited unfolding
// would emit more Open events than the configured budget.
var ErrBudget error = budgetError{}

// NewTraveler returns an event stream over the depth-limited unfolding of
// v. depthLimit counts levels including v itself (depthLimit=1 emits only
// v). budget <= 0 means unlimited.
func NewTraveler(v *Vertex, depthLimit, budget int) EventStream {
	return &traveler{depthLimit: depthLimit, budget: budget, stack: []travFrame{{v: v}}}
}

func (t *traveler) Next() (Event, error) {
	for len(t.stack) > 0 {
		top := &t.stack[len(t.stack)-1]
		if !top.opened {
			top.opened = true
			t.opens++
			if t.budget > 0 && t.opens > t.budget {
				return Event{}, ErrBudget
			}
			return Event{Open: true, Label: top.v.Label}, nil
		}
		if len(t.stack) < t.depthLimit && top.next < len(top.v.Children) {
			child := top.v.Children[top.next]
			top.next++
			t.stack = append(t.stack, travFrame{v: child})
			continue
		}
		ev := Event{Open: false, Label: top.v.Label}
		t.stack = t.stack[:len(t.stack)-1]
		return ev, nil
	}
	return Event{}, io.EOF
}

// Subpattern returns the bisimulation graph of the depth-limited unfolding
// of v. When the vertex's own unfolding is no deeper than the limit, the
// reachable subgraph is already a bisimulation graph and is extracted
// directly without re-running the construction. The boolean result is
// false when the unfolding exceeded the budget (budget <= 0 disables the
// check).
func Subpattern(v *Vertex, depthLimit, budget int) (*Graph, bool, error) {
	if depthLimit <= 0 || int(v.Depth) <= depthLimit {
		g := Reachable(v)
		if budget > 0 && g.NumEdges() > budget {
			return nil, false, nil
		}
		return g, true, nil
	}
	g, err := Build(NewTraveler(v, depthLimit, budget), nil)
	if errors.Is(err, ErrBudget) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return g, true, nil
}

// Reachable extracts the subgraph reachable from v as a fresh Graph with
// re-numbered vertices. The result shares no structure with the source
// graph.
func Reachable(v *Vertex) *Graph {
	remap := make(map[int32]*Vertex)
	var order []*Vertex
	var visit func(*Vertex) *Vertex
	visit = func(u *Vertex) *Vertex {
		if nv, ok := remap[u.ID]; ok {
			return nv
		}
		nv := &Vertex{Label: u.Label, Depth: u.Depth}
		remap[u.ID] = nv
		if len(u.Children) > 0 {
			nv.Children = make([]*Vertex, len(u.Children))
			for i, c := range u.Children {
				nv.Children[i] = visit(c)
			}
		}
		order = append(order, nv)
		nv.ID = int32(len(order) - 1)
		return nv
	}
	root := visit(v)
	return &Graph{Root: root, Vertices: order}
}

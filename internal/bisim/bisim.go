// Package bisim implements the bisimulation graphs at the core of FIX
// (paper §2.2 and §4): the single-pass, stack-based construction from a
// SAX event stream (Algorithm 1, CONSTRUCT-ENTRIES), the depth-limited
// graph traveler used to enumerate subpatterns of large documents
// (GEN-SUBPATTERN / BISIM-TRAVELER), and the conversion to the compact
// graph form consumed by the matrix translation.
//
// Two XML nodes fall into the same bisimulation vertex iff their labels
// and their sets of child vertices coincide — the "signature" of the
// paper. Because children close before their parent in document order, the
// graph is built bottom-up in one pass with O(1) signature hashing.
package bisim

import (
	"cmp"
	"encoding/binary"
	"io"
	"slices"

	"github.com/fix-index/fix/internal/matrix"
	"github.com/fix-index/fix/internal/xmltree"
)

// Event is a structural open/close event over label identifiers. Value
// (text) nodes appear as an Open immediately followed by a Close with
// IsValue set; the construction never emits element callbacks for them.
type Event struct {
	Open    bool
	Label   uint32
	Ptr     uint64
	IsValue bool
}

// EventStream produces structural events; Next returns io.EOF at the end.
type EventStream interface {
	Next() (Event, error)
}

// Vertex is one equivalence class of the bisimulation graph.
type Vertex struct {
	ID       int32
	Label    uint32
	Children []*Vertex // sorted by ID; a set, no duplicates
	Depth    int32     // height of the unfolding: leaf = 1
}

// Graph is a bisimulation graph. Vertices are in creation (bottom-up)
// order, so children always precede parents.
type Graph struct {
	Root     *Vertex
	Vertices []*Vertex
}

// MaxDepth returns the depth of the graph's unfolding (the document
// depth), or 0 for an empty graph.
func (g *Graph) MaxDepth() int {
	if g.Root == nil {
		return 0
	}
	return int(g.Root.Depth)
}

// NumEdges returns the total number of edges.
func (g *Graph) NumEdges() int {
	n := 0
	for _, v := range g.Vertices {
		n += len(v.Children)
	}
	return n
}

// OnElement is invoked by Build at every element closing event with the
// element's bisimulation vertex and its storage pointer. The paper's index
// construction inserts one B-tree entry per invocation (Theorem 4).
type OnElement func(v *Vertex, ptr uint64)

type builder struct {
	bySig    map[string]*Vertex
	vertices []*Vertex
	// kids holds the children of the open elements, closed so far: an
	// element's after its parent's, so closing one pops its own.
	kids []*Vertex
	key  []byte // the signature being interned
}

type sigFrame struct {
	label   uint32
	ptr     uint64
	isValue bool
	kids    int // where the element's children start in builder.kids
}

// Build constructs the bisimulation graph of the event stream. If onClose
// is non-nil it is called for every element (non-value) closing event.
func Build(s EventStream, onClose OnElement) (*Graph, error) {
	b := &builder{bySig: make(map[string]*Vertex)}
	var stack []sigFrame
	var root *Vertex
	for {
		ev, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if ev.Open {
			stack = append(stack, sigFrame{label: ev.Label, ptr: ev.Ptr, isValue: ev.IsValue, kids: len(b.kids)})
			continue
		}
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		u := b.intern(top.label, b.kids[top.kids:])
		if b.kids = b.kids[:top.kids]; len(stack) > 0 {
			b.kids = append(b.kids, u)
		} else {
			root = u
		}
		if !top.isValue && onClose != nil {
			onClose(u, top.ptr)
		}
	}
	return &Graph{Root: root, Vertices: b.vertices}, nil
}

// intern finds or creates the vertex with the given label and children,
// which it sorts by ID and rids of repeats in place.
func (b *builder) intern(label uint32, kids []*Vertex) *Vertex {
	slices.SortFunc(kids, func(x, y *Vertex) int { return cmp.Compare(x.ID, y.ID) })
	kids = slices.Compact(kids)
	b.key = binary.AppendUvarint(b.key[:0], uint64(label))
	for _, c := range kids {
		b.key = binary.AppendUvarint(b.key, uint64(c.ID))
	}
	if v, ok := b.bySig[string(b.key)]; ok {
		return v
	}
	v := &Vertex{ID: int32(len(b.vertices)), Label: label, Depth: 1}
	if len(kids) > 0 {
		v.Children = slices.Clone(kids)
		for _, c := range kids {
			v.Depth = max(v.Depth, c.Depth+1)
		}
	}
	b.vertices = append(b.vertices, v)
	b.bySig[string(b.key)] = v
	return v
}

// MatrixGraph converts g into the compact form used for the skew-symmetric
// matrix translation. Vertex i of the result is g.Vertices[i].
func (g *Graph) MatrixGraph() *matrix.Graph {
	mg := &matrix.Graph{
		Labels: make([]uint32, len(g.Vertices)),
		Adj:    make([][]int32, len(g.Vertices)),
	}
	for i, v := range g.Vertices {
		mg.Labels[i] = v.Label
		if len(v.Children) > 0 {
			adj := make([]int32, len(v.Children))
			for j, c := range v.Children {
				adj[j] = c.ID
			}
			mg.Adj[i] = adj
		}
	}
	return mg
}

// ValueHash maps PCDATA to a synthetic label. The index layer provides one
// implementing the paper's (α, α+β] hashing (§4.6); nil disables value
// nodes entirely.
type ValueHash func(value string) uint32

// xmlAdapter translates an xmltree event stream into structural events,
// interning labels through dict and hashing text through vh. Text events
// expand into an Open/Close pair of a value node; when vh is nil they are
// dropped.
type xmlAdapter struct {
	src     xmltree.EventStream
	dict    *xmltree.Dict
	vh      ValueHash
	pending *Event
}

// FromXML adapts an xmltree event stream for Build.
func FromXML(src xmltree.EventStream, dict *xmltree.Dict, vh ValueHash) EventStream {
	return &xmlAdapter{src: src, dict: dict, vh: vh}
}

func (a *xmlAdapter) Next() (Event, error) {
	if a.pending != nil {
		ev := *a.pending
		a.pending = nil
		return ev, nil
	}
	for {
		ev, err := a.src.Next()
		if err != nil {
			return Event{}, err
		}
		switch ev.Kind {
		case xmltree.Open:
			return Event{Open: true, Label: a.dict.ID(ev.Label), Ptr: ev.Ptr}, nil
		case xmltree.Close:
			return Event{Open: false, Label: a.dict.ID(ev.Label), Ptr: ev.Ptr}, nil
		case xmltree.TextEvent:
			if a.vh == nil {
				continue
			}
			label := a.vh(ev.Value)
			a.pending = &Event{Open: false, Label: label, Ptr: ev.Ptr, IsValue: true}
			return Event{Open: true, Label: label, Ptr: ev.Ptr, IsValue: true}, nil
		}
	}
}

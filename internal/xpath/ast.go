// Package xpath parses the XPath fragment used by FIX (paper §2.1): path
// expressions over child (/) and descendant (//) axes with branching
// predicates and value-equality predicates, e.g.
//
//	//article[author]/ee
//	//open_auction[.//bidder[name][email]]/price
//	//proceedings[publisher="Springer"][title]
//
// A parsed path is converted into a query tree (QNode), which the rest of
// the system uses for twig-pattern construction, depth/coverage checks,
// //-decomposition into twigs (paper §5) and navigational matching.
package xpath

import (
	"strconv"
	"strings"
)

// Axis is the relationship between consecutive steps.
type Axis uint8

const (
	// Child is the / axis.
	Child Axis = iota
	// Descendant is the // axis.
	Descendant
)

func (a Axis) String() string {
	if a == Descendant {
		return "//"
	}
	return "/"
}

// Step is one location step: an axis, a name test and optional predicates.
type Step struct {
	Axis  Axis
	Name  string
	Preds []*Predicate
}

// Predicate is a branching predicate: a relative path, optionally with a
// trailing value-equality comparison ([p = "v"]).
type Predicate struct {
	Path     []*Step
	Value    string
	HasValue bool
}

// Path is a parsed absolute path expression. Steps[0].Axis is the leading
// axis (/ or //).
type Path struct {
	Steps []*Step
}

// String renders the path in XPath syntax.
func (p *Path) String() string {
	var sb strings.Builder
	for _, s := range p.Steps {
		writeStep(&sb, s)
	}
	return sb.String()
}

func writeStep(sb *strings.Builder, s *Step) {
	sb.WriteString(s.Axis.String())
	sb.WriteString(s.Name)
	for _, pred := range s.Preds {
		sb.WriteByte('[')
		for i, ps := range pred.Path {
			if i == 0 {
				if ps.Axis == Descendant {
					sb.WriteString(".//")
				}
			} else {
				sb.WriteString(ps.Axis.String())
			}
			sb.WriteString(ps.Name)
			for _, nested := range ps.Preds {
				sb.WriteByte('[')
				writeRel(sb, nested)
				sb.WriteByte(']')
			}
		}
		if pred.HasValue {
			if len(pred.Path) == 0 {
				sb.WriteByte('.') // value-only predicate: [.="v"]
			}
			sb.WriteByte('=')
			sb.WriteString(quoteValue(pred.Value))
		}
		sb.WriteByte(']')
	}
}

func writeRel(sb *strings.Builder, pred *Predicate) {
	for i, ps := range pred.Path {
		if i == 0 {
			if ps.Axis == Descendant {
				sb.WriteString(".//")
			}
		} else {
			sb.WriteString(ps.Axis.String())
		}
		sb.WriteString(ps.Name)
		for _, nested := range ps.Preds {
			sb.WriteByte('[')
			writeRel(sb, nested)
			sb.WriteByte(']')
		}
	}
	if pred.HasValue {
		if len(pred.Path) == 0 {
			sb.WriteByte('.') // value-only predicate: [.="v"]
		}
		sb.WriteByte('=')
		sb.WriteString(quoteValue(pred.Value))
	}
}

// quoteValue renders a value literal the way the parser reads one: the
// bytes as they are — the grammar has no escapes — between whichever
// quote the value does not contain. (A parsed value never holds both; one
// built by hand that does cannot be written in this grammar and keeps the
// Go quoting.)
func quoteValue(v string) string {
	switch {
	case !strings.Contains(v, `"`):
		return `"` + v + `"`
	case !strings.Contains(v, `'`):
		return `'` + v + `'`
	}
	return strconv.Quote(v)
}

// QNode is a node of the query tree. The tree form is what the matcher and
// the pattern builder consume: every step and every predicate step becomes
// a node; a value-equality predicate becomes a value leaf (IsValue).
type QNode struct {
	Name     string
	Axis     Axis // axis on the edge from the parent (for the root: the leading axis)
	IsValue  bool
	Value    string
	Output   bool // marks the result node (last step of the trunk)
	Children []*QNode
}

// Tree converts the path into its query tree. The returned root is the
// first step; its Axis is the path's leading axis.
func (p *Path) Tree() *QNode {
	if len(p.Steps) == 0 {
		return nil
	}
	root := stepNode(p.Steps[0])
	cur := root
	for _, s := range p.Steps[1:] {
		n := stepNode(s)
		cur.Children = append(cur.Children, n)
		cur = n
	}
	cur.Output = true
	return root
}

func stepNode(s *Step) *QNode {
	n := &QNode{Name: s.Name, Axis: s.Axis}
	for _, pred := range s.Preds {
		n.Children = append(n.Children, predNode(pred))
	}
	return n
}

// predNode converts a predicate's relative path into a chain of QNodes,
// returning the head of the chain.
func predNode(pred *Predicate) *QNode {
	var head, cur *QNode
	for _, s := range pred.Path {
		n := stepNode(s)
		if head == nil {
			head = n
		} else {
			cur.Children = append(cur.Children, n)
		}
		cur = n
	}
	if pred.HasValue {
		leaf := &QNode{IsValue: true, Value: pred.Value, Axis: Child}
		if cur == nil {
			return leaf
		}
		cur.Children = append(cur.Children, leaf)
	}
	return head
}

// Depth returns the number of levels of the query tree rooted at n. Value
// leaves count as a level, matching the indexed representation where
// values are hashed leaf children.
func (n *QNode) Depth() int {
	if n == nil {
		return 0
	}
	max := 0
	for _, c := range n.Children {
		if d := c.Depth(); d > max {
			max = d
		}
	}
	return max + 1
}

// HasDescendantEdge reports whether any edge strictly below n uses the
// descendant axis (the root's own incoming axis is not considered).
func (n *QNode) HasDescendantEdge() bool {
	for _, c := range n.Children {
		if c.Axis == Descendant || c.HasDescendantEdge() {
			return true
		}
	}
	return false
}

// Walk visits every node of the query tree in preorder.
func (n *QNode) Walk(fn func(*QNode)) {
	if n == nil {
		return
	}
	fn(n)
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// String renders the query tree back to an XPath-like expression rooted at
// this node, mainly for diagnostics.
func (n *QNode) String() string {
	var sb strings.Builder
	n.write(&sb, true)
	return sb.String()
}

func (n *QNode) write(sb *strings.Builder, root bool) {
	if n.IsValue {
		sb.WriteString(".=")
		sb.WriteString(quoteValue(n.Value))
		return
	}
	if root {
		sb.WriteString(n.Axis.String())
	} else if n.Axis == Descendant {
		sb.WriteString(".//")
	}
	sb.WriteString(n.Name)
	// Every child is rendered as a predicate, which is semantically
	// equivalent for existential matching and re-parseable.
	for _, c := range n.Children {
		sb.WriteByte('[')
		c.write(sb, false)
		sb.WriteByte(']')
	}
}

// Clone returns a deep copy of the query tree.
func (n *QNode) Clone() *QNode {
	if n == nil {
		return nil
	}
	cp := &QNode{Name: n.Name, Axis: n.Axis, IsValue: n.IsValue, Value: n.Value, Output: n.Output}
	if len(n.Children) > 0 {
		cp.Children = make([]*QNode, len(n.Children))
		for i, c := range n.Children {
			cp.Children[i] = c.Clone()
		}
	}
	return cp
}

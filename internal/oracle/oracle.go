// Package oracle is the reference every query evaluator of the module is
// checked against: documents in a slice, and a naive matcher that
// enumerates every embedding of a twig in exponential time and shares
// nothing with the NoK matcher (internal/nok) but the record cursor. It
// is slow on purpose and belongs to tests: the matcher's differential
// test, and the operation-sequence test that drives databases and
// collections through adds, deletes, checkpoints, crashes and pinned
// views and compares every answer with Docs.Answer.
package oracle

import (
	"sort"

	"github.com/fix-index/fix/internal/xmltree"
	"github.com/fix-index/fix/internal/xpath"
)

// Bindings enumerates every embedding of q's subtree with q bound to the
// node at r. ok reports whether any embedding exists; outs holds the node
// the output query node binds in each of them (empty when the output node
// lies outside q's subtree).
func Bindings(cur xmltree.Cursor, r xmltree.Ref, q *xpath.QNode) (outs map[xmltree.Ref]bool, ok bool) {
	if q.IsValue {
		if !cur.IsText(r) || cur.Text(r) != q.Value {
			return nil, false
		}
	} else if cur.IsText(r) || cur.Label(r) != q.Name {
		return nil, false
	}
	outs = map[xmltree.Ref]bool{}
	if q.Output {
		outs[r] = true
	}
	for _, qc := range q.Children {
		found := false
		var below func(x xmltree.Ref)
		below = func(x xmltree.Ref) {
			it := cur.Children(x)
			for c, more := it.Next(); more; c, more = it.Next() {
				if o, ok := Bindings(cur, c, qc); ok {
					found = true
					for b := range o {
						outs[b] = true
					}
				}
				if qc.Axis == xpath.Descendant {
					below(c)
				}
			}
		}
		below(r)
		if !found {
			return nil, false
		}
	}
	return outs, true
}

// Outputs returns the answer of the whole query on the document at the
// cursor's root: whether it matches, and the output bindings in document
// order, with the query root bound per the leading axis.
func Outputs(cur xmltree.Cursor, q *xpath.QNode) ([]xmltree.Ref, bool) {
	all := map[xmltree.Ref]bool{}
	matched := false
	var try func(r xmltree.Ref)
	try = func(r xmltree.Ref) {
		if o, ok := Bindings(cur, r, q); ok {
			matched = true
			for b := range o {
				all[b] = true
			}
		}
		if q.Axis == xpath.Descendant {
			it := cur.Children(r)
			for c, more := it.Next(); more; c, more = it.Next() {
				try(c)
			}
		}
	}
	try(0)
	outs := make([]xmltree.Ref, 0, len(all))
	for b := range all {
		outs = append(outs, b)
	}
	sort.Slice(outs, func(i, j int) bool { return outs[i] < outs[j] })
	return outs, matched
}

// Docs is a reference document set: the documents in the order they were
// added, each under the ID its database gave it, deleted ones flagged.
// The zero value is empty and ready to use.
type Docs struct {
	dict *xmltree.Dict
	docs []doc
	// memo holds each document's answer to each query tree Answer was
	// asked: -1 for no match, the number of output bindings otherwise.
	// Documents never change, so snapshots share it.
	memo map[memoKey]int
}

type doc struct {
	id   uint64
	cur  xmltree.Cursor
	live bool
}

type memoKey struct {
	doc int
	q   *xpath.QNode
}

// Add records a document under its ID.
func (d *Docs) Add(id uint64, root *xmltree.Node) {
	if d.dict == nil {
		d.dict, d.memo = xmltree.NewDict(), map[memoKey]int{}
	}
	d.docs = append(d.docs, doc{id: id, cur: xmltree.Cursor{Buf: xmltree.EncodeBinary(root, d.dict), Dict: d.dict}, live: true})
}

// Delete flags the live document with the ID deleted, reporting whether
// there was one.
func (d *Docs) Delete(id uint64) bool {
	for i := range d.docs {
		if d.docs[i].id == id && d.docs[i].live {
			d.docs[i].live = false
			return true
		}
	}
	return false
}

// Live returns the IDs of the live documents, in the order they were
// added.
func (d *Docs) Live() []uint64 {
	var ids []uint64
	for _, x := range d.docs {
		if x.live {
			ids = append(ids, x.id)
		}
	}
	return ids
}

// Snapshot returns a copy that later Adds and Deletes do not change: the
// reference for a view pinned now.
func (d *Docs) Snapshot() *Docs {
	return &Docs{dict: d.dict, docs: append([]doc(nil), d.docs...), memo: d.memo}
}

// Answer is the reference answer of q over the live documents that keep
// accepts (every one when keep is nil): the number of output bindings
// summed over them, and the IDs of those with at least one match, in the
// order they were added. A document's answer to the same tree is worked
// out once.
func (d *Docs) Answer(q *xpath.QNode, keep func(id uint64) bool) (count int, matched []uint64) {
	for i, x := range d.docs {
		if !x.live || (keep != nil && !keep(x.id)) {
			continue
		}
		n, ok := d.memo[memoKey{i, q}]
		if !ok {
			outs, match := Outputs(x.cur, q)
			if n = len(outs); !match {
				n = -1
			}
			d.memo[memoKey{i, q}] = n
		}
		if n >= 0 {
			count += n
			matched = append(matched, x.id)
		}
	}
	return count, matched
}

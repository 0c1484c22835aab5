package core

import (
	"fmt"
	"slices"

	"github.com/fix-index/fix/internal/storage"
	"github.com/fix-index/fix/internal/xmltree"
)

// Chunk agreement. Two units agree to depth d when their element trees,
// text nodes skipped, have the same labels, child counts and child order
// for d levels below their roots — or are equal throughout, when both end
// sooner. A chunk records the depth, at most maxAlike, to which every one
// of its units agrees with its first (the d of the chunk codec, key.go).
// Agreeing to depth d is an equivalence, so any two units of the chunk
// agree at least that deeply, and so does what a delete leaves.
//
// Equal ordered skeletons are isomorphic trees, so a twig of child steps
// only and no value leaf, of height h <= d, has the same (matched, count)
// on every unit of the chunk: the refinement matches one and gives its
// answer to the rest (Generation.refine). The test is an ordered lockstep
// walk, with no hashing and no dictionary of shapes; ignoring child order
// would save few matches more (DESIGN.md "Chunk agreement").
const maxAlike = 7

// unitReader reads the units whose agreement a build, an append or Verify
// works out. It holds the records of the request an append files (hold),
// which are in memory anyway, and keeps the others it reads, or was
// handed, up to budget bytes, the oldest going first — but for the latest
// record larger than the budget, which it keeps beside them, so units of one
// large document are compared without reading it again. It reads records
// through the store's own file (Store.ReadRecord), never the mapping, whose
// pages a read would leave resident in the process. A record is never
// overwritten, so the bytes of one that goes stay valid for whoever holds
// them.
type unitReader struct {
	st     *storage.Store
	budget int
	size   int
	recs   map[uint32][]byte
	order  []uint32          // the records kept, oldest first
	held   map[uint32][]byte // the records of the request being filed
	big    []byte            // the latest record kept that is over the budget
	bigRec uint32
	reads  int // records read from the store
}

// The budgets of unit readers. An append keeps one across requests
// (Index.units): on an XMark entity stream ingested four documents a
// request, the last unit of a chunk an append compares a new one with lies
// in one of the 64 records indexed last 62 % of the time, and in one of
// the last 256 all but 0.2 %, so with 256 KB kept an append reads almost
// no record. A build or Verify keeps every record it reads up to 32 MB, so
// a heap of that size is read once.
const (
	appendUnitBytes = 256 << 10
	scanUnitBytes   = 32 << 20
)

func newUnitReader(st *storage.Store, budget int) *unitReader {
	return &unitReader{st: st, budget: budget, recs: make(map[uint32][]byte), held: make(map[uint32][]byte)}
}

// hold makes the reader answer record rec with buf, outside the budget,
// until release.
func (u *unitReader) hold(rec uint32, buf []byte) { u.held[rec] = buf }

// release keeps the records held, in record order, as any others, and
// holds none.
func (u *unitReader) release() {
	recs := make([]uint32, 0, len(u.held))
	for rec := range u.held {
		recs = append(recs, rec)
	}
	slices.Sort(recs)
	for _, rec := range recs {
		u.keep(rec, u.held[rec])
		delete(u.held, rec)
	}
}

// keep adds the bytes of record rec, dropping the oldest records past the
// budget; a record larger than the budget takes the place of the last one
// that was.
func (u *unitReader) keep(rec uint32, buf []byte) {
	if _, ok := u.recs[rec]; ok {
		return
	}
	if len(buf) > u.budget {
		u.big, u.bigRec = buf, rec
		return
	}
	for u.size+len(buf) > u.budget {
		old := u.order[0]
		u.order = u.order[1:]
		u.size -= len(u.recs[old])
		delete(u.recs, old)
	}
	u.recs[rec] = buf
	u.order = append(u.order, rec)
	u.size += len(buf)
}

// record returns the bytes of record rec.
func (u *unitReader) record(rec uint32) ([]byte, error) {
	if buf, ok := u.held[rec]; ok {
		return buf, nil
	}
	if u.big != nil && u.bigRec == rec {
		return u.big, nil
	}
	if buf, ok := u.recs[rec]; ok {
		return buf, nil
	}
	buf, err := u.st.ReadRecord(nil, rec)
	if err != nil {
		return nil, err
	}
	u.reads++
	u.keep(rec, buf)
	return buf, nil
}

// unit returns a cursor at the unit p.
func (u *unitReader) unit(p storage.Pointer) (xmltree.Cursor, error) {
	buf, err := u.record(p.Rec())
	if err == nil && int(p.Off()) >= len(buf) {
		err = fmt.Errorf("core: unit %v lies beyond its record of %d bytes", p, len(buf))
	}
	return xmltree.Cursor{Buf: buf}, err
}

// agree returns the depth, at most lim, to which the units at p and q
// agree. The units are of one chunk, so their roots carry one label.
func (u *unitReader) agree(p, q storage.Pointer, lim int) (int, error) {
	if lim == 0 {
		return 0, nil
	}
	ca, err := u.unit(p)
	if err != nil {
		return 0, err
	}
	cb, err := u.unit(q)
	if err != nil {
		return 0, err
	}
	_, _, ab, ae := ca.Span(xmltree.Ref(p.Off()))
	_, _, bb, be := cb.Span(xmltree.Ref(q.Off()))
	return agreeBelow(ca, ab, ae, cb, bb, be, lim), nil
}

// agreeBelow returns the depth, at most lim >= 1, to which two elements
// whose children span [ab, ae) of ca and [bb, be) of cb agree, given that
// their labels are equal: 0 when their element children differ in number
// or in a label, and otherwise one more than the least agreement of two
// children at the same place.
func agreeBelow(ca xmltree.Cursor, ab, ae xmltree.Ref, cb xmltree.Cursor, bb, be xmltree.Ref, lim int) int {
	d := lim
	for {
		la, xb, xe, okA := nextElement(ca, &ab, ae)
		lb, yb, ye, okB := nextElement(cb, &bb, be)
		if okA != okB || la != lb {
			return 0
		}
		if !okA {
			return d
		}
		if d > 1 {
			d = min(d, 1+agreeBelow(ca, xb, xe, cb, yb, ye, d-1))
		}
	}
}

// nextElement steps *pos past the next element child in [*pos, end) and
// the text before it, and returns its label and the span of its children;
// ok is false when no element is left.
func nextElement(c xmltree.Cursor, pos *xmltree.Ref, end xmltree.Ref) (label uint32, body, bodyEnd xmltree.Ref, ok bool) {
	for *pos < end {
		label, isText, body, e, ok := c.QuickSpan(*pos)
		if !ok {
			label, isText, body, e = c.Span(*pos)
		}
		*pos = e
		if !isText {
			return label, body, e, true
		}
	}
	return 0, 0, 0, false
}

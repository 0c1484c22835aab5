package core

import (
	"encoding/binary"
	"sync"

	"github.com/fix-index/fix/internal/bisim"
)

// The shape table. A unit's features are a pure function of the structure
// the solver is handed (paper §3.4, Theorem 4), and markup repeats, so an
// index keeps the features of the shapes it has seen: a unit whose shape
// is known skips the subpattern, the matrix and the eigen solve.
//
// The key is exact, not a hash. Under a depth limit L it is built from cut
// ids: cut(v, 1) interns a vertex's label, cut(v, d) its label and the ids
// cut(c, d−1) of its children in the order the vertex holds them, and a
// child shallower than d−1 contributes cut(c, c.Depth), the whole of it.
// Interning is injective, so two vertices with equal cut(v, min(L,
// v.Depth)) unfold to the same ordered tree down to level L, which is the
// event stream bisim.Subpattern's traveler feeds to bisim.Build, and, when
// that is the whole unfolding, decides the graph bisim.Reachable copies. A
// unit's key is its cut id and whether v.Depth <= L, which says which of
// the two Subpattern takes (and whether the edge budget counts its edges or
// its traveler's events). A whole-document index keys a unit by its
// record's graph itself, as matrix.Graph reads it: every vertex's label and
// children, in vertex order. Either way equal keys hand the solver the same
// matrix, and the sketch the same edges: EdgeEncoder weights are fixed when
// a pair is first seen and the value hash's α when the index is built, so
// a hit returns bit-identical σ and sketch.
//
// The table is an index's own, empty when the index is built or opened,
// and shared by the extraction pool's workers under its mutex; what it
// holds changes how often the solver runs, never what an entry says, so
// the index bytes are the same at any Workers. It holds at most shapeCap
// keys, and the features of at most two units a key, and is cleared when
// full.
type shapeTable struct {
	mu sync.Mutex // lockcheck: leaf
	// ids maps a key's bytes to its id: (label, child cut ids) for a cut,
	// the serialized graph of a record for a whole-document unit.
	ids   map[string]uint32   // guarded by mu
	feats map[uint32]Features // guarded by mu (by unitKey, or id<<1 for a whole-document unit)
	gen   uint32              // guarded by mu (clears so far: an id handed out before a clear is refused after it)
	bytes int                 // guarded by mu (the bytes of the keys of ids)
	key   []byte              // guarded by mu (the key being looked up)
}

// shapeCap is the most keys the shape table holds, and shapeBytes the most
// bytes they take together; a key longer than shapeBytes/64 is not kept, and
// its unit's features are computed every time. At these sizes the 0.05 XMark
// entity stream of BenchmarkIngestRequest, into a depth-6 index, never
// clears the table (DESIGN.md "Shape table" has its size).
const (
	shapeCap   = 1 << 12
	shapeBytes = 1 << 18
)

// intern returns the id of t.key, adding it. It reports false when it does
// not: for a key too long to keep, and for one the table has no room for,
// which clears it — the ids handed out before are void.
func (t *shapeTable) intern() (uint32, bool) {
	if id, ok := t.ids[string(t.key)]; ok {
		return id, true
	}
	if len(t.key) > shapeBytes/64 {
		return 0, false
	}
	if len(t.ids) >= shapeCap || t.bytes+len(t.key) > shapeBytes {
		t.clear()
		return 0, false
	}
	if t.ids == nil {
		t.ids, t.feats = make(map[string]uint32), make(map[uint32]Features)
	}
	id := uint32(len(t.ids))
	t.ids[string(t.key)] = id
	t.bytes += len(t.key)
	return id, true
}

// clear empties the table; the ids handed out before are void.
func (t *shapeTable) clear() {
	t.ids, t.feats, t.bytes = nil, nil, 0
	t.gen++
}

// cutIDs returns cut(v, d) of every vertex v of g for d from 1 to min(limit,
// v.Depth), at ids[v.ID*limit+d-1], and the generation they belong to. ok
// is false when they are not all kept: there are more than an empty table
// holds, a key is too long, or they do not fit the table even after a
// clear. A record of more cuts than shapeCap is not tried, so it never
// clears the table.
func (t *shapeTable) cutIDs(g *bisim.Graph, limit int) (ids []uint32, gen uint32, ok bool) {
	cuts := 0
	for _, v := range g.Vertices {
		cuts += min(limit, int(v.Depth))
	}
	if cuts > shapeCap {
		return nil, 0, false
	}
	ids = make([]uint32, len(g.Vertices)*limit)
	t.mu.Lock()
	defer t.mu.Unlock()
	for try := 0; try < 2; try++ {
		gen = t.gen
		if t.internCuts(g, limit, ids) {
			return ids, gen, true
		}
		if gen == t.gen {
			break // a key too long to keep, which cleared nothing
		}
	}
	return nil, 0, false
}

// internCuts fills ids for cutIDs and reports whether the table kept them
// all.
func (t *shapeTable) internCuts(g *bisim.Graph, limit int, ids []uint32) bool {
	for _, v := range g.Vertices { // children first
		for d := 1; d <= min(limit, int(v.Depth)); d++ {
			t.key = binary.AppendUvarint(t.key[:0], uint64(v.Label))
			if d > 1 {
				for _, c := range v.Children {
					t.key = binary.AppendUvarint(t.key, uint64(ids[int(c.ID)*limit+min(d-1, int(c.Depth))-1]))
				}
			}
			id, ok := t.intern()
			if !ok {
				return false
			}
			ids[int(v.ID)*limit+d-1] = id
		}
	}
	return true
}

// graphID returns the id of g's serialization and its generation; ok is
// false when the table does not keep it.
func (t *shapeTable) graphID(g *bisim.Graph) (id, gen uint32, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.key = t.key[:0]
	for _, v := range g.Vertices {
		t.key = binary.AppendUvarint(binary.AppendUvarint(t.key, uint64(v.Label)), uint64(len(v.Children)))
		for _, c := range v.Children {
			t.key = binary.AppendUvarint(t.key, uint64(c.ID))
		}
	}
	id, ok = t.intern()
	return id, t.gen, ok
}

// features returns the features of the unit of key, an id of generation gen:
// those the table holds under it, or what compute returns, which the table
// then keeps unless it was cleared since gen. With ok false the unit has no
// key, and compute alone runs. compute runs without the table's lock.
func (t *shapeTable) features(gen, key uint32, ok bool, compute func() (Features, error)) (Features, error) {
	if !ok {
		return compute()
	}
	t.mu.Lock()
	f, hit := t.feats[key]
	hit = hit && gen == t.gen
	t.mu.Unlock()
	if hit {
		return f, nil
	}
	f, err := compute()
	if err != nil {
		return Features{}, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if gen == t.gen && t.feats != nil {
		t.feats[key] = f
	}
	return f, nil
}

// unitKey returns the features key of the unit of vertex v under depth
// limit limit: its cut id from ids, which cutIDs returned, and whether v is
// no deeper than the limit. Without ids it returns 0, which features does
// not use.
func unitKey(ids []uint32, v *bisim.Vertex, limit int) uint32 {
	if ids == nil {
		return 0
	}
	depth := int(v.Depth)
	key := ids[int(v.ID)*limit+min(limit, depth)-1] << 1
	if depth <= limit {
		key |= 1
	}
	return key
}

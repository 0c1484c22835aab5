package btree

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"github.com/fix-index/fix/internal/storage"
)

// runKey is a key of the shape internal/core writes: a 20-byte group
// (label, λmax, λmin there; here spread from the run number so different
// runs differ from their first bytes on) and an 8-byte big-endian tail.
func runKey(run int, tail uint64) []byte {
	k := make([]byte, 28)
	binary.BigEndian.PutUint32(k, uint32(run)*2654435761)
	binary.BigEndian.PutUint64(k[4:], uint64(run)*0x9e3779b97f4a7c15)
	binary.BigEndian.PutUint64(k[12:], uint64(run))
	binary.BigEndian.PutUint64(k[20:], tail)
	return k
}

// TestLeafSplitsMatchReferencePages drives the run rule through the
// differential oracle of the in-place tests: keys of a dozen runs, mostly
// with the growing tail that puts them at the end of their run and now and
// then anywhere inside it, values from empty to the largest the tree takes,
// on 512-byte pages — and after every Put the leaf it touched and the
// sibling a split gave it are byte-equal to referenceLeafEdit's, which
// also refuses a split that leaves a page empty. The test requires that
// both forms of the cut at a run's end, and the cut at mid, were taken.
func TestLeafSplitsMatchReferencePages(t *testing.T) {
	tr, err := Create(storage.NewMemFile(), 512, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	m := &modelTree{t: t, tr: tr, model: map[string][]byte{}, rng: rng}
	var before, after, mid int
	for i := 0; i < 6000; i++ {
		tail := uint64(i) << 20
		if rng.Intn(10) == 0 {
			tail = uint64(rng.Intn(i+1))<<20 | 1
		}
		k := runKey(rng.Intn(12), tail)
		v := make([]byte, rng.Intn(12))
		if rng.Intn(40) == 0 {
			v = make([]byte, tr.maxEntry()-8-len(k))
		}
		c, err := findLeaf(tr, tr.root, tr.height, k)
		if err != nil {
			t.Fatal(err)
		}
		at, err := c.locate(k)
		if err != nil {
			t.Fatal(err)
		}
		id, cellsBefore, pagesBefore, last := c.id, c.n, tr.p.npages, at.off == at.end
		m.edit(k, v)
		if tr.p.npages == pagesBefore {
			continue
		}
		left, err := tr.cells(id)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case left.n == (cellsBefore+1)/2:
			mid++
		case last && left.n == cellsBefore:
			before++
		default:
			after++
		}
	}
	t.Logf("%d splits before the new key, %d after it, %d at mid", before, after, mid)
	if before < 20 || after < 20 || mid < 20 {
		t.Errorf("%d splits before the new key, %d after it, %d at mid: want at least 20 of each", before, after, mid)
	}
	m.check("after 6000 run-shaped puts")
}

// TestLeafSplitAroundMaximalEntries splits a leaf whose cells are as
// uneven as they get: small cells of one run, then the largest entries the
// tree takes at the end of that run — as the page's last cells and in
// front of another run's cell — through the same differential oracle.
func TestLeafSplitAroundMaximalEntries(t *testing.T) {
	for _, tc := range []struct {
		name     string
		small    int  // empty-valued cells of run 1 put first
		followed bool // a cell of run 3, which sorts after run 1, is on the page too
	}{
		{"maximal entries end the page", 9, false},
		{"maximal entries end their run", 9, true},
		{"maximal entries only", 0, false},
		{"maximal entries in front of another run", 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := Create(storage.NewMemFile(), 512, 8)
			if err != nil {
				t.Fatal(err)
			}
			m := &modelTree{t: t, tr: tr, model: map[string][]byte{}, rng: rand.New(rand.NewSource(1))}
			if tc.followed {
				m.edit(runKey(3, 0), []byte{})
			}
			seq := uint64(0)
			for ; seq < uint64(tc.small); seq++ {
				m.edit(runKey(1, seq), []byte{})
			}
			for ; tr.p.npages < 6; seq++ { // until the leaf has split three times
				k := runKey(1, seq)
				m.edit(k, make([]byte, tr.maxEntry()-8-len(k)))
			}
			m.check(tc.name)
		})
	}
}

package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/fix-index/fix/internal/storage"
)

// runKey is a key shaped like a run of internal/core's: a group every key
// of the run shares (there the 12 bytes of label and σ; here 20, spread
// from the run number so different runs differ from their first bytes on)
// and an 8-byte big-endian tail.
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
	tr, err := Create(storage.NewMemFile(), 512, 0)
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
		id, cellsBefore, pagesBefore, last := c.id, c.n, uint32(len(tr.pages)), at.off == at.end
		m.edit(k, v)
		if uint32(len(tr.pages)) == pagesBefore {
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
			tr, err := Create(storage.NewMemFile(), 512, 0)
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
			for ; uint32(len(tr.pages)) < 6; seq++ { // until the leaf has split three times
				k := runKey(1, seq)
				m.edit(k, make([]byte, tr.maxEntry()-8-len(k)))
			}
			m.check(tc.name)
		})
	}
}

// TestLeafSplitWhereTheCutDoesNotFit splits leaves whose largest cells all
// lie on one side of mid, so that the half that gets them and the new entry
// does not fit a page — three maximal entries and eight small cells, in
// either order, and a fourth maximal entry put at the end the others are
// at — through the same differential oracle, whose encoder panics on a half
// that does not fit and which refuses an empty one. The tree must have cut
// elsewhere than referenceCut proposes: where the left page is fullest.
// (The cell that opens the right page is stored whole there and grows by
// what it shared; that alone never makes a half too large — DESIGN.md
// "Leaf splits".)
func TestLeafSplitWhereTheCutDoesNotFit(t *testing.T) {
	for _, tc := range []struct {
		name               string
		small, large, last string // key prefixes: eight small cells, three maximal ones, the one that splits
	}{
		{"largest cells first", "c", "b", "a"},
		{"largest cells last", "a", "b", "c"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newModelTree(t, 0, 1)
			maximal := func(k string) []byte { return make([]byte, m.tr.maxEntry()-8-len(k)) }
			for i := 1; i <= 8; i++ {
				m.edit([]byte(fmt.Sprint(tc.small, i)), []byte{})
			}
			for i := 1; i <= 3; i++ {
				k := fmt.Sprint(tc.large, i)
				m.edit([]byte(k), maximal(k))
			}
			k, leaf := []byte(tc.last+"0"), leafOf(t, m.tr, nil)
			i := sort.Search(len(leaf.keys), func(i int) bool { return bytes.Compare(leaf.keys[i], k) >= 0 })
			keys := append(append(append([][]byte(nil), leaf.keys[:i]...), k), leaf.keys[i:]...)
			vals := append(append(append([][]byte(nil), leaf.vals[:i]...), maximal(string(k))), leaf.vals[i:]...)
			m.edit(k, maximal(string(k)))
			left, err := m.tr.cells(leaf.id)
			if err != nil {
				t.Fatal(err)
			}
			if uint32(len(m.tr.pages)) != 4 || left.n == referenceCut(keys, vals, i, m.tr.payloadSize()) {
				t.Errorf("%d pages, %d cells on the left: want a split, and not where the halves do not fit", uint32(len(m.tr.pages)), left.n)
			}
			m.check(tc.name)
		})
	}
}

//go:build !race

package btree

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"

	"github.com/fix-index/fix/internal/storage"
)

// The characterisation is two million single-goroutine Puts: the race
// detector has nothing to find in it and makes it ten times slower.

// splitPatterns are the insert orders the leaf split is characterised on,
// each a function from a seeded source and a count to that many distinct
// keys in insertion order. limit is the bytes per entry the pattern must
// not exceed; samePages marks the patterns the run rule must leave alone,
// whose page count is pinned to the one the mid split gave the same key
// sequence (measured at the commit before the rule, at 200 000 keys).
var splitPatterns = []struct {
	name      string
	keys      func(rng *rand.Rand, n int) [][]byte
	limit     float64
	samePages uint32
}{
	{"uniform random", func(rng *rand.Rand, n int) [][]byte {
		out := make([][]byte, n)
		for i := range out {
			out[i] = make([]byte, 28)
			rng.Read(out[i])
		}
		return out
	}, 63, 3042},
	{"strictly ascending", func(_ *rand.Rand, n int) [][]byte {
		return grouped(n, func(int) int { return 0 }, nil)
	}, 50, 0},
	{"20 runs, ascending inside", func(rng *rand.Rand, n int) [][]byte {
		return grouped(n, func(int) int { return rng.Intn(20) }, nil)
	}, 50, 0},
	{"200 runs, ascending inside", func(rng *rand.Rand, n int) [][]byte {
		return grouped(n, func(int) int { return rng.Intn(200) }, nil)
	}, 50, 0},
	{"Zipf-sized runs, ascending inside", func(rng *rand.Rand, n int) [][]byte {
		z := rand.NewZipf(rng, 1.5, 2, 1<<20)
		return grouped(n, func(int) int { return int(z.Uint64()) }, nil)
	}, 54, 0},
	{"5 000 runs shorter than a page", func(rng *rand.Rand, n int) [][]byte {
		return grouped(n, func(int) int { return rng.Intn(5000) }, nil)
	}, 63, 3013},
	{"50 000 runs shorter than a page", func(rng *rand.Rand, n int) [][]byte {
		return grouped(n, func(int) int { return rng.Intn(50000) }, nil)
	}, 63, 3035},
	{"strictly descending", func(_ *rand.Rand, n int) [][]byte {
		return grouped(n, func(int) int { return 0 }, func(i int) uint64 { return uint64(n - i) })
	}, 86, 0},
	{"20 runs, random inside", func(rng *rand.Rand, n int) [][]byte {
		return grouped(n, func(int) int { return rng.Intn(20) }, func(int) uint64 { return rng.Uint64() })
	}, 66, 0},
	{"200 runs, random inside", func(rng *rand.Rand, n int) [][]byte {
		return grouped(n, func(int) int { return rng.Intn(200) }, func(int) uint64 { return rng.Uint64() })
	}, 66, 0},
}

// grouped returns n keys, the i-th in run(i) with tail(i) — by default i
// itself, the counter that only grows.
func grouped(n int, run func(i int) int, tail func(i int) uint64) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		t := uint64(i)
		if tail != nil {
			t = tail(i)
		}
		out[i] = runKey(run(i), t)
	}
	return out
}

// TestLeafSplitFill is the characterisation of the leaf split as a test:
// 200 000 28-byte keys with 10-byte values into an empty tree, per insert
// pattern the bytes per entry the tree ends at (-v logs the table DESIGN.md
// quotes), then Verify, no leaf left empty by a split, and a comparison of
// the whole tree with the sorted model.
func TestLeafSplitFill(t *testing.T) {
	const n = 200000
	for _, p := range splitPatterns {
		t.Run(p.name, func(t *testing.T) {
			tr, err := Create(storage.NewMemFile(), DefaultPageSize, 8192)
			if err != nil {
				t.Fatal(err)
			}
			keys := p.keys(rand.New(rand.NewSource(21)), n)
			want := make([]kv, n)
			for i, k := range keys {
				v := make([]byte, 10)
				binary.BigEndian.PutUint64(v, uint64(i))
				if err := tr.Put(k, v); err != nil {
					t.Fatal(err)
				}
				want[i] = kv{k, v}
			}
			if err := tr.Verify(); err != nil {
				t.Fatal(err)
			}
			for id := uint32(1); id < tr.p.npages; id++ {
				if c, err := tr.cells(id); err != nil || c.n == 0 {
					t.Fatalf("page %d holds no cell (%v)", id, err)
				}
			}
			sort.Slice(want, func(i, j int) bool { return bytes.Compare(want[i].k, want[j].k) < 0 })
			sameEntries(t, "scan after the inserts", scanAll(t, tr.Scan), want)
			perEntry := float64(tr.Size()) / n
			t.Logf("%d pages, %.1f B/entry", tr.p.npages, perEntry)
			if perEntry > p.limit {
				t.Errorf("%.1f bytes per entry, want at most %.0f", perEntry, p.limit)
			}
			if d := int(tr.p.npages) - int(p.samePages); p.samePages != 0 && 100*max(d, -d) > int(p.samePages) {
				t.Errorf("%d pages; the mid split gives this key sequence %d, and the run rule must not move it by more than 1 %%", tr.p.npages, p.samePages)
			}
		})
	}
}

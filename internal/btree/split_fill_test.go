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
// whose page count is pinned to the one the mid split gives the same key
// sequence (measured with runEnd returning mid, at 200 000 keys); bigEvery
// gives every so-manieth entry the largest value the tree takes.
var splitPatterns = []struct {
	name      string
	keys      func(rng *rand.Rand, n int) [][]byte
	limit     float64
	samePages uint32
	bigEvery  int
}{
	{"uniform random", func(rng *rand.Rand, n int) [][]byte {
		out := make([][]byte, n)
		for i := range out {
			out[i] = make([]byte, 28)
			rng.Read(out[i])
		}
		return out
	}, 60, 2845, 0},
	{"strictly ascending", func(_ *rand.Rand, n int) [][]byte {
		return grouped(n, func(int) int { return 0 }, nil)
	}, 16, 0, 0},
	{"20 runs, ascending inside", func(rng *rand.Rand, n int) [][]byte {
		return grouped(n, func(int) int { return rng.Intn(20) }, nil)
	}, 17, 0, 0},
	{"200 runs, ascending inside", func(rng *rand.Rand, n int) [][]byte {
		return grouped(n, func(int) int { return rng.Intn(200) }, nil)
	}, 22, 0, 0},
	{"Zipf-sized runs, ascending inside", func(rng *rand.Rand, n int) [][]byte {
		z := rand.NewZipf(rng, 1.5, 2, 1<<20)
		return grouped(n, func(int) int { return int(z.Uint64()) }, nil)
	}, 21, 0, 0},
	{"5 000 runs shorter than a page", func(rng *rand.Rand, n int) [][]byte {
		return grouped(n, func(int) int { return rng.Intn(5000) }, nil)
	}, 25, 1141, 0},
	{"50 000 runs shorter than a page", func(rng *rand.Rand, n int) [][]byte {
		return grouped(n, func(int) int { return rng.Intn(50000) }, nil)
	}, 33, 1550, 0},
	{"strictly descending", func(_ *rand.Rand, n int) [][]byte {
		return grouped(n, func(int) int { return 0 }, func(i int) uint64 { return uint64(n - i) })
	}, 30, 0, 0},
	{"20 runs, random inside", func(rng *rand.Rand, n int) [][]byte {
		return grouped(n, func(int) int { return rng.Intn(20) }, func(int) uint64 { return rng.Uint64() })
	}, 31, 0, 0},
	{"200 runs, random inside", func(rng *rand.Rand, n int) [][]byte {
		return grouped(n, func(int) int { return rng.Intn(200) }, func(int) uint64 { return rng.Uint64() })
	}, 32, 0, 0},
	// Keys of 148 bytes that share 140 and more inside a run: both lengths
	// of a cell take varints of two bytes.
	{"20 runs of long keys, ascending inside", func(rng *rand.Rand, n int) [][]byte {
		out := grouped(n, func(int) int { return rng.Intn(20) }, nil)
		for i, k := range out {
			out[i] = append(bytes.Repeat(k[:20], 6), k...)
		}
		return out
	}, 19, 0, 0},
	{"20 runs, ascending inside, a maximal entry every 50th", func(rng *rand.Rand, n int) [][]byte {
		return grouped(n, func(int) int { return rng.Intn(20) }, nil)
	}, 40, 0, 50},
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
// 200 000 keys (28 bytes where the pattern does not say otherwise) with
// 10-byte values into an empty tree, per insert
// pattern the bytes per entry the tree ends at (-v logs the table DESIGN.md
// quotes), then Verify, no leaf left empty by a split, and a comparison of
// the whole tree with the sorted model.
func TestLeafSplitFill(t *testing.T) {
	const n = 200000
	for _, p := range splitPatterns {
		t.Run(p.name, func(t *testing.T) {
			tr, err := Create(storage.NewMemFile(), DefaultPageSize, 0)
			if err != nil {
				t.Fatal(err)
			}
			keys := p.keys(rand.New(rand.NewSource(21)), n)
			want := make([]kv, n)
			for i, k := range keys {
				v := make([]byte, 10)
				if p.bigEvery > 0 && i%p.bigEvery == 0 {
					v = make([]byte, tr.maxEntry()-8-len(k))
				}
				binary.BigEndian.PutUint64(v, uint64(i))
				if err := tr.Put(k, v); err != nil {
					t.Fatal(err)
				}
				want[i] = kv{k, v}
			}
			if err := tr.Verify(); err != nil {
				t.Fatal(err)
			}
			for id := uint32(1); id < uint32(len(tr.pages)); id++ {
				if c, err := tr.cells(id); err != nil || c.n == 0 {
					t.Fatalf("page %d holds no cell (%v)", id, err)
				}
			}
			sort.Slice(want, func(i, j int) bool { return bytes.Compare(want[i].k, want[j].k) < 0 })
			sameEntries(t, "scan after the inserts", scanAll(t, tr.Scan), want)
			perEntry := float64(tr.Size()) / n
			t.Logf("%d pages, %.1f B/entry", uint32(len(tr.pages)), perEntry)
			if perEntry > p.limit {
				t.Errorf("%.1f bytes per entry, want at most %.0f", perEntry, p.limit)
			}
			if d := int(uint32(len(tr.pages))) - int(p.samePages); p.samePages != 0 && 100*max(d, -d) > int(p.samePages) {
				t.Errorf("%d pages; the mid split gives this key sequence %d, and the run rule must not move it by more than 1 %%", uint32(len(tr.pages)), p.samePages)
			}
		})
	}
}

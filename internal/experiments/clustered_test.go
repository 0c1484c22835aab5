package experiments

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"github.com/fix-index/fix/internal/datagen"
	"github.com/fix-index/fix/internal/storage"
)

// TestClusterCopiesEachPostingInKeyOrder lays out the clustered copy of
// every dataset's index at the test scale and requires the paper's layout
// (§4.1): record i of the heap holds the subtree of the i-th posting in key
// order, read out of the chunks with this package's own codec
// (appendPostings), and the heap holds nothing else. It then plants a chunk
// of another σ whose one posting is a pointer the index holds, which no
// build makes, and requires Cluster to refuse the index.
func TestClusterCopiesEachPostingInKeyOrder(t *testing.T) {
	for _, ds := range datagen.AllDatasets {
		ix, err := testEnv(t, ds).Unclustered()
		if err != nil {
			t.Fatalf("%s: %v", ds, err)
		}
		var ps []posting
		var firstKey []byte
		err = ix.BTree().Scan(nil, nil, func(k, v []byte) bool {
			if firstKey == nil {
				firstKey = slices.Clone(k)
			}
			ps = appendPostings(t, ps, k, v)
			return true
		})
		if err != nil {
			t.Fatalf("%s: %v", ds, err)
		}
		c, err := Cluster(ix)
		if err != nil {
			t.Fatalf("%s: %v", ds, err)
		}
		if c.heap.NumRecords() != len(ps) || len(c.copies) != len(ps) {
			t.Fatalf("%s: %d records, %d copies for %d postings", ds, c.heap.NumRecords(), len(c.copies), len(ps))
		}
		for i, p := range ps {
			if rec, ok := c.copies[p.ptr]; !ok || rec != uint32(i) {
				t.Fatalf("%s: posting %d in key order has its copy in record %d (%t)", ds, i, rec, ok)
			}
			cur, ref, err := ix.Store().ReadSubtree(p.ptr)
			if err != nil {
				t.Fatal(err)
			}
			copied, err := c.heap.Record(uint32(i))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cur.SubtreeBytes(ref), copied) {
				t.Fatalf("%s: record %d differs from the subtree of posting %d", ds, i, i)
			}
		}

		twice := slices.Clone(firstKey)
		for i := 4; i < 12; i++ {
			twice[i] ^= 0xff
		}
		if _, found, err := ix.BTree().Get(twice); err != nil || found {
			t.Fatalf("%s: planted key %x already held (%t, %v)", ds, twice, found, err)
		}
		// A head of one posting agreeing to depth 0, and a zero sketch.
		if err := ix.BTree().Put(twice, []byte{1 << 3, 0, 0, 0}); err != nil {
			t.Fatal(err)
		}
		if _, err := Cluster(ix); err == nil {
			t.Errorf("%s: Cluster over a subtree indexed twice succeeded", ds)
		}
	}
}

// posting is one entry read out of a chunk: the first 12 bytes of its key —
// label and σ — its pointer, its position in key order and its position in
// build order.
type posting struct {
	run [12]byte
	ptr storage.Pointer
	key uint32
	seq uint64
}

// appendPostings appends the postings of the chunk (k, v) to ps. It reads
// the chunk the way internal/core/key.go states the codec, on its own: a
// uvarint n<<3 | d, three bytes of pair sketch, then per posting after the
// first (whose pointer is the key's) a uvarint Δoff<<1 in the same record
// or Δrec<<1 | 1 and a uvarint offset in a later one.
func appendPostings(t *testing.T, ps []posting, k, v []byte) []posting {
	if len(k) != 20 {
		t.Fatalf("key %x is %d bytes, want 20", k, len(k))
	}
	fail := func() { t.Fatalf("chunk %x: value %x does not decode", k, v) }
	uvarint := func() uint64 {
		x, n := binary.Uvarint(v)
		if n <= 0 {
			fail()
		}
		v = v[n:]
		return x
	}
	p := posting{ptr: storage.Pointer(binary.BigEndian.Uint64(k[12:])), key: uint32(len(ps))}
	copy(p.run[:], k)
	head := uvarint()
	if len(v) < 3 {
		fail()
	}
	v = v[3:]
	ps = append(ps, p)
	for n := head >> 3; n > 1; n-- {
		if h := uvarint(); h&1 == 0 {
			p.ptr += storage.Pointer(h >> 1)
		} else {
			p.ptr = storage.MakePointer(p.ptr.Rec()+uint32(h>>1), uint32(uvarint()))
		}
		p.key = uint32(len(ps))
		ps = append(ps, p)
	}
	if len(v) != 0 {
		fail()
	}
	return ps
}

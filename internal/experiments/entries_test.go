//go:build !race

// Four index builds at scale 1.0 and a hash of every entry: nothing here
// runs concurrently that the build tests do not already run under the race
// detector, which makes this one ten times slower.

package experiments

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"slices"
	"testing"

	"github.com/fix-index/fix/internal/core"
	"github.com/fix-index/fix/internal/datagen"
	"github.com/fix-index/fix/internal/storage"
)

// recordedEntries are, per dataset at the experiments' scale (seed 42,
// scale 1.0), the number of entries of the unclustered and the clustered
// index and two SHA-256s. sha256 hashes every entry of both — the
// unclustered index's, then its offline clustered copy's — in the spelling
// they had when each was one B-tree cell: in (label, σ, seq) order, seq
// being the entry's position in build order, each key and each value
// preceded by its length as a big-endian u32, each key as metaVersion 3
// spelled it (oldKey), each value as metaVersion 2 did (oldSpelling), a
// clustered one with the pointer of the entry's copy after the primary one
// (withCopy). It was recorded at the commit before page format FIXBT003,
// whose leaves stored keys whole: neither how a page spells a key, nor how
// a key spells σ, nor how a value spells its pointers, nor how a run is cut
// into chunks may change what an entry holds — its label, σ, order and
// pointer. raw hashes the chunks as stored, keys and values, recorded when
// metaVersion 8 left each chunk one spelling, a head of its count and the
// depth to which its units agree: a change to the spelling, to a sketch or
// to an agreement shows there.
var recordedEntries = map[datagen.Dataset]struct {
	entries     int
	sha256, raw string
}{
	datagen.TCMDDataset:     {5214, "1fea11706c99376b445a2e3399a77e5b0ebdba3b4e893714180be612f2532daf", "36d67ab0fb740f5432325463f4d0f2deb5188fef1c01e02e68c3566b877fdcfe"},
	datagen.DBLPDataset:     {615076, "1c7a5a69865454067c0feee31f3d7bf71fe85fefe9e6e8bd0897cbe62d57ce05", "c7a1c699bb49903eebb9431ad6d0de2c0d442236980025c2d0ddcf005c0cd453"},
	datagen.XMarkDataset:    {307486, "fa9323ce3149101791dc4df15cfc6cddab92912986c96fd98348f0bd9ec0308d", "ce22eff37a176fc0630e0e869aa10902159828d15b66fe7dbc0fe45a1a7f4dbd"},
	datagen.TreebankDataset: {483836, "8a26b5b45fc54621765b90a1fa79a44cba28f11a2df65c8521acc7504e43aede", "13ae1c895b9047503d3ba71e94553dc2a5742313a6bbfa5b1b9ac13f86a85d32"},
}

// TestIndexEntriesAreTheRecordedOnes builds the experiments' index and its
// clustered copy and requires a full scan of the B-tree to yield the
// recorded entries, byte for byte, in both spellings.
func TestIndexEntriesAreTheRecordedOnes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds four indexes at scale 1.0")
	}
	for _, ds := range datagen.AllDatasets {
		env, err := Setup(ds, datagen.Config{Seed: 42, Scale: 1.0})
		if err != nil {
			t.Fatal(err)
		}
		ix, err := env.Unclustered()
		if err != nil {
			t.Fatal(err)
		}
		c, err := env.Clustered()
		if err != nil {
			t.Fatal(err)
		}
		raw := sha256.New()
		var postings []posting
		err = ix.BTree().Scan(nil, nil, func(k, v []byte) bool {
			writeEntry(raw, k, v)
			postings = appendPostings(t, postings, k, v)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		inBuildOrder(t, env.Store, postings)
		old, entries := sha256.New(), 0
		for _, clustered := range []bool{false, true} {
			for _, p := range postings {
				writeEntry(old, p.oldKey(), p.oldSpelling(t, c, clustered))
				entries++
			}
		}
		env.Close()
		want := recordedEntries[ds]
		if got := hex.EncodeToString(old.Sum(nil)); entries != want.entries || got != want.sha256 {
			t.Errorf("%s: %d entries, sha256 %s; recorded: %d, %s", ds, entries, got, want.entries, want.sha256)
		}
		if got := hex.EncodeToString(raw.Sum(nil)); got != want.raw {
			t.Errorf("%s: sha256 of the chunks as stored %s; recorded: %s", ds, got, want.raw)
		}
	}
}

// writeEntry hashes a key and a value, each preceded by its length.
func writeEntry(h hash.Hash, k, v []byte) {
	for _, b := range [][]byte{k, v} {
		var n [4]byte
		binary.BigEndian.PutUint32(n[:], uint32(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
}

// posting is one entry read out of a chunk: the first 12 bytes of its key —
// label and σ — its pointer, and its position in build order.
type posting struct {
	run [12]byte
	ptr storage.Pointer
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
	p := posting{ptr: storage.Pointer(binary.BigEndian.Uint64(k[12:]))}
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
		ps = append(ps, p)
	}
	if len(v) != 0 {
		fail()
	}
	return ps
}

// inBuildOrder sets every posting's seq to its position in the order a
// build collected the entries — records in order, and in a record the
// elements in the order they close (bisim.Build's callback): by the end of
// their subtree, a descendant that ends with its ancestor first — and sorts
// ps by (label, σ, seq), the order of the keys that ended in seq.
func inBuildOrder(t *testing.T, st *storage.Store, ps []posting) {
	type closing struct {
		i        int
		rec, end uint32
		off      uint32
	}
	order := make([]closing, len(ps))
	for i, p := range ps {
		cur, ref, err := st.ReadSubtree(p.ptr)
		if err != nil {
			t.Fatal(err)
		}
		order[i] = closing{i, p.ptr.Rec(), p.ptr.Off() + uint32(len(cur.SubtreeBytes(ref))), p.ptr.Off()}
	}
	slices.SortFunc(order, func(a, b closing) int {
		return cmp.Or(cmp.Compare(a.rec, b.rec), cmp.Compare(a.end, b.end), cmp.Compare(b.off, a.off))
	})
	for seq, c := range order {
		ps[c.i].seq = uint64(seq)
	}
	slices.SortFunc(ps, func(a, b posting) int {
		return cmp.Or(bytes.Compare(a.run[:], b.run[:]), cmp.Compare(a.seq, b.seq))
	})
}

// oldKey spells the posting's key the way metaVersion 3 and before did:
// label, λmax, λmin, seq. λmax is σ and λmin is −σ, and encodeFloat(−σ) is
// the complement of encodeFloat(σ) — for ±0 and ±Inf too.
func (p posting) oldKey() []byte {
	out := binary.BigEndian.AppendUint64(append([]byte(nil), p.run[:]...), ^binary.BigEndian.Uint64(p.run[4:12]))
	return binary.BigEndian.AppendUint64(out, p.seq)
}

// oldSpelling spells the posting's value the way metaVersion 2 did: a flag
// byte — bit 0 set when a clustered pointer follows, bits 4-7 the number of
// spectrum components, none here — then each pointer as a big-endian u64,
// rec<<32 | off, the clustered one that of the entry's copy in c (its
// record, offset 0).
func (p posting) oldSpelling(t *testing.T, c *core.Clustered, clustered bool) []byte {
	out := binary.BigEndian.AppendUint64([]byte{0}, uint64(p.ptr))
	if clustered {
		copied, ok := c.Copy(p.ptr)
		if !ok {
			t.Fatalf("%v names no copied subtree", p.ptr)
		}
		out[0] |= 1
		out = binary.BigEndian.AppendUint64(out, uint64(storage.MakePointer(copied, 0)))
	}
	return out
}

//go:build !race

// Four index builds at scale 1.0 and a hash of every entry: nothing here
// runs concurrently that the build tests do not already run under the race
// detector, which makes this one ten times slower.

package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"github.com/fix-index/fix/internal/core"
	"github.com/fix-index/fix/internal/datagen"
	"github.com/fix-index/fix/internal/storage"
)

// recordedEntries are, per dataset at the experiments' scale (seed 42,
// scale 1.0), the number of entries of the unclustered and the clustered
// index and two SHA-256s of their (key, value) sequences in key order —
// each key and each value preceded by its length as a big-endian u32, the
// two indexes one after the other. They were recorded when a clustered
// index was a build option whose values held the pointer of each entry's
// copy after the primary one; the test now spells those values from the
// unclustered index and its offline clustered copy (withCopy), so the
// recorded hashes pin the copy's key order too. sha256 hashes each key
// re-spelled as metaVersion 3 spelled it (oldKey) and each value as
// metaVersion 2 did (oldSpelling), and was recorded at the commit before
// page format FIXBT003, whose leaves stored keys whole: neither how
// a page spells a key, nor how a key spells σ, nor how a value spells its
// pointers may change what an entry holds — its label, σ, order and
// pointer. raw hashes the keys and values as stored, recorded when
// metaVersion 4 dropped λmin from the key: a change to the
// spelling shows there.
var recordedEntries = map[datagen.Dataset]struct {
	entries     int
	sha256, raw string
}{
	datagen.TCMDDataset:     {5214, "1fea11706c99376b445a2e3399a77e5b0ebdba3b4e893714180be612f2532daf", "366318adc59d9437a1903900f066eedcfdcecfa4cccec1ae0dc649c6c34cce0c"},
	datagen.DBLPDataset:     {615076, "1c7a5a69865454067c0feee31f3d7bf71fe85fefe9e6e8bd0897cbe62d57ce05", "bcbb54f25a44c61df46bfa9693250e690aadfda776e25fdc0a273976b6b4b3a7"},
	datagen.XMarkDataset:    {307486, "fa9323ce3149101791dc4df15cfc6cddab92912986c96fd98348f0bd9ec0308d", "5155621525f987f0c72706f669e2913119c9d319d5c55575be12e406fef0b8a4"},
	datagen.TreebankDataset: {483836, "8a26b5b45fc54621765b90a1fa79a44cba28f11a2df65c8521acc7504e43aede", "705dce5832ca10b5808e3dfdb5a4195b787aa9444bf22e63f0aca3043c151754"},
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
		old, raw, entries := sha256.New(), sha256.New(), 0
		for _, clustered := range []bool{false, true} {
			err = ix.BTree().Scan(nil, nil, func(k, v []byte) bool {
				if clustered {
					v = withCopy(t, c, v)
				}
				writeEntry(old, oldKey(t, k), oldSpelling(t, v, clustered))
				writeEntry(raw, k, v)
				entries++
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		env.Close()
		want := recordedEntries[ds]
		if got := hex.EncodeToString(old.Sum(nil)); entries != want.entries || got != want.sha256 {
			t.Errorf("%s: %d entries, sha256 %s; recorded: %d, %s", ds, entries, got, want.entries, want.sha256)
		}
		if got := hex.EncodeToString(raw.Sum(nil)); got != want.raw {
			t.Errorf("%s: sha256 of the entries as stored %s; recorded: %s", ds, got, want.raw)
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

// oldKey re-spells a key the way metaVersion 3 and before did: label, λmax,
// λmin, seq. λmax is σ and λmin is −σ, and encodeFloat(−σ) is the
// complement of encodeFloat(σ) — for ±0 and ±Inf too.
func oldKey(t *testing.T, k []byte) []byte {
	if len(k) != 20 {
		t.Fatalf("key %x is %d bytes, want 20", k, len(k))
	}
	out := binary.BigEndian.AppendUint64(append([]byte(nil), k[:12]...), ^binary.BigEndian.Uint64(k[4:12]))
	return append(out, k[12:]...)
}

// withCopy spells v, a value of the index c is the clustered copy of, the
// way a clustered index stored it: the primary pointer, then the pointer of
// the entry's copy — its record, offset 0 — then the spectrum.
func withCopy(t *testing.T, c *core.Clustered, v []byte) []byte {
	rec, a := binary.Uvarint(v)
	off, b := binary.Uvarint(v[a:])
	copied, ok := c.Copy(storage.MakePointer(uint32(rec), uint32(off)))
	if a <= 0 || b <= 0 || !ok {
		t.Fatalf("value %x names no copied subtree", v)
	}
	out := binary.AppendUvarint(append([]byte(nil), v[:a+b]...), uint64(copied))
	return append(binary.AppendUvarint(out, 0), v[a+b:]...)
}

// oldSpelling re-spells a value of an unclustered or a clustered index the
// way metaVersion 2 did: a flag byte — bit 0 set when a clustered pointer
// follows, bits 4-7 the number of spectrum components — then each pointer
// as a big-endian u64, rec<<32 | off, then the spectrum as stored.
func oldSpelling(t *testing.T, v []byte, clustered bool) []byte {
	pointers, flags := 1, byte(0)
	if clustered {
		pointers, flags = 2, 1
	}
	var ptrs []byte
	for range pointers {
		rec, a := binary.Uvarint(v)
		if a <= 0 {
			t.Fatalf("value %x does not start with a pointer", v)
		}
		off, b := binary.Uvarint(v[a:])
		if b <= 0 {
			t.Fatalf("value %x does not start with a pointer", v)
		}
		ptrs = binary.BigEndian.AppendUint64(ptrs, rec<<32|off)
		v = v[a+b:]
	}
	flags |= byte(len(v)/8) << 4
	return append(append([]byte{flags}, ptrs...), v...)
}

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
// recorded hashes pin the copy's key order too. sha256 hashes each value re-spelled as
// metaVersion 2 spelled it (oldSpelling) and was recorded at the commit
// before page format FIXBT003 (PR 21), whose leaves stored keys whole:
// neither how a page spells a key nor how a value spells its pointers may
// change what an entry holds. raw hashes the values as stored, recorded
// when metaVersion 3 respelled them (PR 25): a change to the spelling shows
// there.
var recordedEntries = map[datagen.Dataset]struct {
	entries     int
	sha256, raw string
}{
	datagen.TCMDDataset:     {5214, "1fea11706c99376b445a2e3399a77e5b0ebdba3b4e893714180be612f2532daf", "d9f8643c113cfd09fcb611e2d7f41283214bc2777810ca02f9ed9d17751ab09d"},
	datagen.DBLPDataset:     {615076, "1c7a5a69865454067c0feee31f3d7bf71fe85fefe9e6e8bd0897cbe62d57ce05", "2f5d5295479297af6c1567be810fb056fc892de20d66141e7f63630905981d1b"},
	datagen.XMarkDataset:    {307486, "fa9323ce3149101791dc4df15cfc6cddab92912986c96fd98348f0bd9ec0308d", "715076054a725156dbd7014a2ab19335dff84169208086afc72111ad2f85d1f9"},
	datagen.TreebankDataset: {483836, "8a26b5b45fc54621765b90a1fa79a44cba28f11a2df65c8521acc7504e43aede", "ea8ee254a6755685ba1a5b1e36d0861c37c7aa7cda41e2fe2018ddf6ca10a248"},
}

// TestIndexEntriesAreTheRecordedOnes builds the experiments' index and its
// clustered copy and requires a full scan of the B-tree to yield the
// recorded entries, byte for byte, in both spellings of the values.
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
				writeEntry(old, k, oldSpelling(t, v, clustered))
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
			t.Errorf("%s: sha256 of the values as stored %s; recorded: %s", ds, got, want.raw)
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

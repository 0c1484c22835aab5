//go:build !race

// Eight index builds at scale 1.0 and a hash of every entry: nothing here
// runs concurrently that the build tests do not already run under the race
// detector, which makes this one ten times slower.

package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"github.com/fix-index/fix/internal/core"
	"github.com/fix-index/fix/internal/datagen"
)

// recordedEntries are, per dataset at the experiments' scale (seed 42,
// scale 1.0), the number of entries of the unclustered and the clustered
// index and the SHA-256 of their (key, value) sequences in key order — each
// key and each value preceded by its length as a big-endian u32, the two
// indexes one after the other. They were recorded at the commit before page
// format FIXBT003 (PR 21), whose leaves stored keys whole: what the tree
// hands back must not depend on how a page spells it.
var recordedEntries = map[datagen.Dataset]struct {
	entries int
	sha256  string
}{
	datagen.TCMDDataset:     {5214, "1fea11706c99376b445a2e3399a77e5b0ebdba3b4e893714180be612f2532daf"},
	datagen.DBLPDataset:     {615076, "1c7a5a69865454067c0feee31f3d7bf71fe85fefe9e6e8bd0897cbe62d57ce05"},
	datagen.XMarkDataset:    {307486, "fa9323ce3149101791dc4df15cfc6cddab92912986c96fd98348f0bd9ec0308d"},
	datagen.TreebankDataset: {483836, "8a26b5b45fc54621765b90a1fa79a44cba28f11a2df65c8521acc7504e43aede"},
}

// TestIndexEntriesAreTheRecordedOnes builds the experiments' indexes and
// requires a full scan of each B-tree to yield the recorded entries, byte
// for byte.
func TestIndexEntriesAreTheRecordedOnes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds eight indexes at scale 1.0")
	}
	for _, ds := range datagen.AllDatasets {
		env, err := Setup(ds, datagen.Config{Seed: 42, Scale: 1.0})
		if err != nil {
			t.Fatal(err)
		}
		h, entries := sha256.New(), 0
		for _, build := range []func() (*core.Index, error){env.Unclustered, env.Clustered} {
			ix, err := build()
			if err != nil {
				t.Fatal(err)
			}
			err = ix.BTree().Scan(nil, nil, func(k, v []byte) bool {
				for _, b := range [][]byte{k, v} {
					var n [4]byte
					binary.BigEndian.PutUint32(n[:], uint32(len(b)))
					h.Write(n[:])
					h.Write(b)
				}
				entries++
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		env.Close()
		want := recordedEntries[ds]
		if got := hex.EncodeToString(h.Sum(nil)); entries != want.entries || got != want.sha256 {
			t.Errorf("%s: %d entries, sha256 %s; recorded: %d, %s", ds, entries, got, want.entries, want.sha256)
		}
	}
}

package storage

import (
	"fmt"
	"slices"
	"testing"

	"github.com/fix-index/fix/internal/xmltree"
)

// committed is what a heap holds after one sealed batch.
type committed struct {
	end     int64
	records int
	deleted []uint32
	labels  []string
}

// playBatches builds a heap from script, one operation a byte: append a
// record, delete one, assign a label, or seal the batch. It returns the
// heap's bytes and what it held after each seal.
func playBatches(t *testing.T, script []byte) ([]byte, []committed) {
	dict := xmltree.NewDict()
	f := NewMemFile()
	st, err := NewStore(f, dict)
	if err != nil {
		t.Fatal(err)
	}
	batches := []committed{{end: int64(len(storeMagic))}}
	for _, b := range script {
		switch b % 4 {
		case 0:
			if _, err := st.AppendBytes(make([]byte, b/4%32)); err != nil {
				t.Fatal(err)
			}
		case 1:
			if n := st.NumRecords(); n > 0 {
				if _, err := st.MarkDeleted(uint32(int(b/4) % n)); err != nil {
					t.Fatal(err)
				}
			}
		case 2:
			dict.ID(fmt.Sprint("l", b/4))
		case 3:
			if err := st.Seal(); err != nil {
				t.Fatal(err)
			}
			var dels []uint32
			for rec := 0; rec < st.NumRecords(); rec++ {
				if st.IsDeleted(uint32(rec)) {
					dels = append(dels, uint32(rec))
				}
			}
			labels := make([]string, dict.Len())
			for id := range labels {
				labels[id] = dict.Label(uint32(id + 1))
			}
			batches = append(batches, committed{st.Size(), st.NumRecords(), dels, labels})
		}
	}
	return f.buf, batches
}

// FuzzHeapScan checks the heap's decoder. Bytes after the magic never
// make OpenStore panic, and never yield a record that runs past the file
// or past the last trailer that checks. A heap of sealed batches (the
// input read as playBatches's script), cut at any byte, reopens to the
// whole batches before the cut: their records, tombstones and labels; and
// what follows them, a crash's cut, DropTornTail drops (the records are
// zeros, so no run of their bytes reads as a trailer).
func FuzzHeapScan(f *testing.F) {
	f.Add([]byte{0, 4, 3})             // records only
	f.Add([]byte{0, 4, 3, 1, 3})       // a batch of deletes only
	f.Add([]byte{2, 6, 0, 3})          // labels and a record
	f.Add([]byte{0, 8, 2, 1, 3, 0, 3}) // every section, then records
	f.Fuzz(func(t *testing.T, data []byte) {
		raw := &MemFile{buf: append([]byte(storeMagic), data...)}
		if st, err := OpenStore(raw, xmltree.NewDict()); err == nil {
			size, _ := raw.Size()
			if st.Size()+st.TornTail() != size {
				t.Fatalf("kept %d bytes and %d torn of a %d-byte file", st.Size(), st.TornTail(), size)
			}
			for rec := range st.NumRecords() {
				if end := st.offs[rec] + 4 + int64(st.lens[rec]); end > st.Size() {
					t.Fatalf("record %d ends at %d, past the last good trailer at %d", rec, end, st.Size())
				}
				if _, err := st.ReadRecord(nil, uint32(rec)); err != nil {
					t.Fatal(err)
				}
			}
		}

		heap, batches := playBatches(t, data)
		cut := int64(len(storeMagic))
		for _, b := range data {
			cut = (cut*31 + int64(b)) % int64(len(heap)+1)
		}
		cut = max(cut, int64(len(storeMagic)))
		want := batches[0]
		for _, b := range batches {
			if b.end <= cut {
				want = b
			}
		}
		st, err := OpenStore(&MemFile{buf: heap[:cut]}, xmltree.NewDict())
		if err != nil {
			t.Fatalf("cut at %d of %d: %v", cut, len(heap), err)
		}
		var dels []uint32
		for rec := 0; rec < st.NumRecords(); rec++ {
			if st.IsDeleted(uint32(rec)) {
				dels = append(dels, uint32(rec))
			}
		}
		var labels []string
		for id := 1; id <= st.Dict().Len(); id++ {
			labels = append(labels, st.Dict().Label(uint32(id)))
		}
		if st.Size() != want.end || st.NumRecords() != want.records || !slices.Equal(dels, want.deleted) || !slices.Equal(labels, want.labels) {
			t.Fatalf("cut at %d of %d: reopened to %d bytes, %d records, deleted %v, labels %v; want %+v",
				cut, len(heap), st.Size(), st.NumRecords(), dels, labels, want)
		}
		if err := st.DropTornTail(); err != nil {
			t.Fatalf("cut at %d of %d: %v", cut, len(heap), err)
		}
	})
}

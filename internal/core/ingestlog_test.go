package core

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"
	"testing"

	"github.com/fix-index/fix/internal/storage"
)

// TestIngestLogWriter checks the writer the benchmark's ledger times: the
// header it writes, Size equal to the file's length after two batches,
// and one write and one fsync per batch — the plan counts both, and
// failing the second of a batch's two fails its sync.
func TestIngestLogWriter(t *testing.T) {
	batches := [][]IngestOp{
		{{Kind: IngestOpInsert, Rec: 3, XML: []byte("<a><b>x</b></a>")}, {Kind: IngestOpDelete, Rec: 1}},
		{{Kind: IngestOpInsert, Rec: 4, XML: []byte("<c/>")}},
	}
	mem := storage.NewMemFile()
	pl := &storage.FaultPlan{}
	lg, err := NewIngestLog(pl.Wrap(mem), 3, 123)
	if err != nil {
		t.Fatal(err)
	}
	hdr := make([]byte, ingestHeaderSize)
	if _, err := mem.ReadAt(hdr, 0); err != nil {
		t.Fatal(err)
	}
	want := binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint32([]byte(ingestMagic), 3), 123)
	want = binary.BigEndian.AppendUint32(want, crc32.Checksum(want, journalCRC))
	if string(hdr) != string(want) {
		t.Fatalf("header % x, want % x", hdr, want)
	}
	if pl.Writes() != 2 {
		t.Fatalf("the header took %d writes and syncs, want 2", pl.Writes())
	}
	for i, b := range batches {
		if err := lg.AppendBatch(b); err != nil {
			t.Fatal(err)
		}
		if got := pl.Writes(); got != 2*(i+2) {
			t.Fatalf("after batch %d: %d writes and syncs, want %d", i+1, got, 2*(i+2))
		}
	}
	if size, err := mem.Size(); err != nil || lg.Size() != size {
		t.Fatalf("Size() = %d, the file holds %d bytes (%v)", lg.Size(), size, err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}

	lg, err = NewIngestLog((&storage.FaultPlan{FailWrite: 4}).Wrap(storage.NewMemFile()), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.AppendBatch(batches[0]); !errors.Is(err, storage.ErrInjected) || !strings.Contains(err.Error(), "syncing") {
		t.Fatalf("AppendBatch with its sync failing = %v", err)
	}
}

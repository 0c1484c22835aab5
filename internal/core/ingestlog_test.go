package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"github.com/fix-index/fix/internal/storage"
)

func sampleOps() []IngestOp {
	return []IngestOp{
		{Kind: IngestOpInsert, Rec: 3, XML: []byte("<a><b>x</b></a>")},
		{Kind: IngestOpDelete, Rec: 1},
		{Kind: IngestOpInsert, Rec: 4, XML: []byte("<c/>")},
	}
}

func opsEqual(a, b []IngestOp) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].Rec != b[i].Rec || string(a[i].XML) != string(b[i].XML) {
			return false
		}
	}
	return true
}

func TestIngestLogRoundTrip(t *testing.T) {
	f := storage.NewMemFile()
	lg, err := NewIngestLog(f, 3, 123)
	if err != nil {
		t.Fatal(err)
	}
	batch1 := sampleOps()
	batch2 := []IngestOp{{Kind: IngestOpInsert, Rec: 5, XML: []byte("<d>y</d>")}}
	if err := lg.AppendBatch(batch1); err != nil {
		t.Fatal(err)
	}
	if err := lg.AppendBatch(batch2); err != nil {
		t.Fatal(err)
	}
	rec, end, ops, ok, err := ReadIngestLog(f)
	if err != nil || !ok {
		t.Fatalf("ReadIngestLog: ok=%v err=%v", ok, err)
	}
	if rec != 3 || end != 123 {
		t.Fatalf("base (%d, %d), want (3, 123)", rec, end)
	}
	want := append(append([]IngestOp{}, batch1...), batch2...)
	if !opsEqual(ops, want) {
		t.Fatalf("replayed ops = %+v, want %+v", ops, want)
	}
	if size, _ := f.Size(); size != lg.Size() {
		t.Fatalf("file size %d != appended size %d", size, lg.Size())
	}
}

func TestIngestLogEmpty(t *testing.T) {
	f := storage.NewMemFile()
	if _, err := NewIngestLog(f, 0, 0); err != nil {
		t.Fatal(err)
	}
	_, _, ops, ok, err := ReadIngestLog(f)
	if err != nil || !ok {
		t.Fatalf("ReadIngestLog: ok=%v err=%v", ok, err)
	}
	if len(ops) != 0 {
		t.Fatalf("empty log replayed %d ops", len(ops))
	}
}

func TestIngestLogBadHeader(t *testing.T) {
	cases := map[string]func(f *storage.MemFile){
		"truncated": func(f *storage.MemFile) {
			_, _ = f.WriteAt([]byte("FIXW"), 0)
		},
		"bad magic": func(f *storage.MemFile) {
			buf := make([]byte, ingestHeaderSize)
			_, _ = f.WriteAt(buf, 0)
		},
		"bad crc": func(f *storage.MemFile) {
			lg, err := NewIngestLog(f, 7, 99)
			if err != nil {
				panic(err)
			}
			_ = lg
			_, _ = f.WriteAt([]byte{0xff}, ingestHeaderSize-1)
		},
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			f := storage.NewMemFile()
			corrupt(f)
			_, _, _, ok, err := ReadIngestLog(f)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				t.Fatal("invalid header reported ok")
			}
		})
	}
}

func TestIngestLogTornTail(t *testing.T) {
	// A torn final batch must be dropped; the valid prefix survives.
	for cut := 1; cut < 40; cut++ {
		f := storage.NewMemFile()
		lg, err := NewIngestLog(f, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		first := sampleOps()
		if err := lg.AppendBatch(first); err != nil {
			t.Fatal(err)
		}
		goodSize := lg.Size()
		if err := lg.AppendBatch([]IngestOp{{Kind: IngestOpInsert, Rec: 5, XML: []byte("<torn>tail</torn>")}}); err != nil {
			t.Fatal(err)
		}
		if int64(cut) >= lg.Size()-goodSize {
			break
		}
		if err := f.Truncate(lg.Size() - int64(cut)); err != nil {
			t.Fatal(err)
		}
		size, _ := f.Size()
		_, _, ops, ok, err := ReadIngestLog(f)
		if err != nil || !ok {
			t.Fatalf("cut %d: ok=%v err=%v", cut, ok, err)
		}
		if !opsEqual(ops, first) {
			t.Fatalf("cut %d: replayed %+v, want the first batch only", cut, ops)
		}
		if sz, _ := f.Size(); sz != size {
			t.Fatalf("cut %d: reading the log wrote it (file %d bytes, was %d)", cut, sz, size)
		}
	}
}

func TestIngestLogCorruptBatch(t *testing.T) {
	f := storage.NewMemFile()
	lg, err := NewIngestLog(f, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	first := sampleOps()
	if err := lg.AppendBatch(first); err != nil {
		t.Fatal(err)
	}
	goodSize := lg.Size()
	if err := lg.AppendBatch([]IngestOp{{Kind: IngestOpInsert, Rec: 9, XML: []byte("<x/>")}}); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the second batch: CRC must reject it and
	// everything after it.
	if _, err := f.WriteAt([]byte{0xAA}, goodSize+6); err != nil {
		t.Fatal(err)
	}
	_, _, ops, ok, err := ReadIngestLog(f)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if !opsEqual(ops, first) {
		t.Fatalf("replayed %+v, want the first batch only", ops)
	}
}

func TestIngestLogAppendFaults(t *testing.T) {
	// Sweep every write op of header + two appends; after each injected
	// crash the log must open to a valid prefix of fully-acked batches.
	batchA := sampleOps()
	batchB := []IngestOp{{Kind: IngestOpDelete, Rec: 0}}
	for fail := 1; fail <= 8; fail++ {
		for _, torn := range []bool{false, true} {
			name := fmt.Sprintf("fail=%d torn=%v", fail, torn)
			pl := &storage.FaultPlan{FailWrite: fail, Torn: torn}
			mem := storage.NewMemFile()
			f := pl.Wrap(mem)
			acked := 0
			lg, err := NewIngestLog(f, 0, 0)
			if err == nil {
				if err = lg.AppendBatch(batchA); err == nil {
					acked = len(batchA)
					if err = lg.AppendBatch(batchB); err == nil {
						acked += len(batchB)
					}
				}
			}
			if err != nil && !errors.Is(err, storage.ErrInjected) {
				t.Fatalf("%s: unexpected error %v", name, err)
			}
			// Reopen the raw file, as recovery would after the crash.
			_, _, ops, ok, openErr := ReadIngestLog(mem)
			if openErr != nil {
				t.Fatalf("%s: reopen: %v", name, openErr)
			}
			if !ok {
				if acked != 0 {
					t.Fatalf("%s: header invalid but %d ops were acked", name, acked)
				}
				continue
			}
			// Everything acknowledged must replay; a fully-written batch
			// whose fsync failed may replay too (documented at-least-once
			// window), so ops may exceed acked but never exceed attempts.
			if len(ops) < acked {
				t.Fatalf("%s: %d ops acked but only %d replayed", name, acked, len(ops))
			}
			if len(ops) > len(batchA)+len(batchB) {
				t.Fatalf("%s: replayed %d ops, more than ever attempted", name, len(ops))
			}
			if len(ops) >= len(batchA) && !opsEqual(ops[:len(batchA)], batchA) {
				t.Fatalf("%s: first batch corrupted on replay", name)
			}
		}
	}
}

func TestDecodeIngestBatchRejects(t *testing.T) {
	good := encodeIngestBatch(sampleOps())
	payload := good[4 : len(good)-4]
	if _, err := decodeIngestBatch(payload); err != nil {
		t.Fatalf("control: %v", err)
	}
	t.Run("short", func(t *testing.T) {
		if _, err := decodeIngestBatch([]byte{1, 2}); err == nil {
			t.Fatal("short payload accepted")
		}
	})
	t.Run("trailing", func(t *testing.T) {
		if _, err := decodeIngestBatch(append(append([]byte{}, payload...), 0)); err == nil {
			t.Fatal("trailing byte accepted")
		}
	})
	t.Run("kind", func(t *testing.T) {
		bad := append([]byte{}, payload...)
		bad[4] = 77 // first op's kind
		if _, err := decodeIngestBatch(bad); err == nil {
			t.Fatal("unknown kind accepted")
		}
	})
	t.Run("opcount", func(t *testing.T) {
		bad := append([]byte{}, payload...)
		binary.BigEndian.PutUint32(bad, maxIngestBatchOps+1)
		if _, err := decodeIngestBatch(bad); err == nil {
			t.Fatal("absurd op count accepted")
		}
	})
	t.Run("xmllen", func(t *testing.T) {
		bad := append([]byte{}, payload...)
		binary.BigEndian.PutUint32(bad[9:], 1<<31) // first insert's XML length
		if _, err := decodeIngestBatch(bad); err == nil {
			t.Fatal("oversized XML length accepted")
		}
	})
}

package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"github.com/fix-index/fix/internal/storage"
)

// Ingest write-ahead log of the format before batch trailers. A
// database of that format appended every acknowledged batch of inserts
// and deletes to fix.ingest, as raw XML, and fsynced it before applying
// the batch to the heap. The heap is its own log now (storage.Store.Seal),
// so only two parts of the log remain, and both go with ROADMAP 7(e) and
// the next format generation: ReadIngestLog, with which the database
// layer converts a directory that still holds a log, and the writer the
// benchmark's ledger times (NewIngestLog, AppendBatch, Size, Close).
//
// Layout (all integers big-endian):
//
//	header:  magic "FIXWAL01" (8) | base records u32 | base heap end u64 |
//	         CRC-32C of the 20 bytes above, u32
//	batches: payload length u32 | payload | CRC-32C of the payload, u32
//	payload: op count u32, then per op:
//	         kind u8 (1=insert, 2=delete) | record u32 |
//	         for inserts: XML length u32 | raw XML bytes
//
// The header was fsynced at creation, so a log whose header fails its
// checksum was being created or reset when the crash hit — nothing in
// that generation was ever acknowledged. Batches are validated front to
// back; the longest valid prefix is exactly the set of acknowledged
// batches.
const ingestMagic = "FIXWAL01"

// IngestLogName is the file name of the ingest write-ahead log inside a
// database directory of the format before batch trailers.
const IngestLogName = "fix.ingest"

const ingestHeaderSize = 8 + 4 + 8 + 4

// Decode guard: a batch claiming more operations is treated as a torn
// tail rather than allocated on faith.
const maxIngestBatchOps = 1 << 20

// Kinds of ingest log operations.
const (
	// IngestOpInsert appends a document; Rec is the record number the
	// replayed append must produce, XML the raw document text.
	IngestOpInsert = byte(1)
	// IngestOpDelete tombstones record Rec and removes its index
	// entries.
	IngestOpDelete = byte(2)
)

// IngestOp is one logged ingest operation.
type IngestOp struct {
	Kind byte   // IngestOpInsert or IngestOpDelete
	Rec  uint32 // record number appended (insert) or targeted (delete)
	XML  []byte // raw document text, inserts only
}

// IngestLog is the writer of an ingest log over a single file. It is not
// internally locked.
type IngestLog struct {
	f    storage.File
	size int64 // end of the durable, valid prefix
}

// NewIngestLog initializes an empty log over f, recording a store state
// (record count and heap byte size) as its base, and fsyncs the header.
func NewIngestLog(f storage.File, baseRecords uint32, baseEnd int64) (*IngestLog, error) {
	hdr := make([]byte, 0, ingestHeaderSize)
	hdr = append(hdr, ingestMagic...)
	hdr = binary.BigEndian.AppendUint32(hdr, baseRecords)
	hdr = binary.BigEndian.AppendUint64(hdr, uint64(baseEnd))
	hdr = binary.BigEndian.AppendUint32(hdr, crc32.Checksum(hdr, journalCRC))
	if _, err := f.WriteAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("core: writing ingest log header: %w", err)
	}
	if err := f.Sync(); err != nil {
		return nil, fmt.Errorf("core: syncing ingest log header: %w", err)
	}
	return &IngestLog{f: f, size: ingestHeaderSize}, nil
}

// ReadIngestLog reads an existing log without writing it: the store
// state it was based at (the record count and heap byte size the heap is
// cut back to before replay) and the operations of its longest valid
// prefix of batches. ok is false when the header itself is invalid: the
// log was being created or reset when the crash hit, and nothing in it
// was acknowledged.
func ReadIngestLog(f storage.File) (baseRecords uint32, baseEnd int64, ops []IngestOp, ok bool, err error) {
	size, err := f.Size()
	if err != nil || size < ingestHeaderSize {
		return 0, 0, nil, false, err
	}
	b := make([]byte, size)
	if _, err := f.ReadAt(b, 0); err != nil {
		return 0, 0, nil, false, fmt.Errorf("core: reading ingest log: %w", err)
	}
	hdr := b[:ingestHeaderSize-4]
	if string(hdr[:8]) != ingestMagic || crc32.Checksum(hdr, journalCRC) != binary.BigEndian.Uint32(b[len(hdr):]) {
		return 0, 0, nil, false, nil
	}
	// A batch that runs past the end, fails its checksum or does not
	// decode is a torn tail: it never finished reaching the disk.
	for b = b[ingestHeaderSize:]; len(b) >= 8; {
		n := int64(binary.BigEndian.Uint32(b))
		if n > int64(len(b))-8 || crc32.Checksum(b[4:4+n], journalCRC) != binary.BigEndian.Uint32(b[4+n:]) {
			break
		}
		batch, err := decodeIngestBatch(b[4 : 4+n])
		if err != nil {
			break
		}
		ops, b = append(ops, batch...), b[8+n:]
	}
	return binary.BigEndian.Uint32(hdr[8:12]), int64(binary.BigEndian.Uint64(hdr[12:20])), ops, true, nil
}

// Size returns the byte size of the log.
func (lg *IngestLog) Size() int64 { return lg.size }

// AppendBatch encodes the batch, appends it and fsyncs — the single
// group-commit fsync that made every operation in the batch durable at
// once. A batch an error cut short fails its checksum when the log is
// read.
func (lg *IngestLog) AppendBatch(ops []IngestOp) error {
	if len(ops) == 0 {
		return nil
	}
	buf := encodeIngestBatch(ops)
	if _, err := lg.f.WriteAt(buf, lg.size); err != nil {
		return fmt.Errorf("core: appending ingest batch: %w", err)
	}
	if err := lg.f.Sync(); err != nil {
		return fmt.Errorf("core: syncing ingest batch: %w", err)
	}
	lg.size += int64(len(buf))
	return nil
}

// Close closes the underlying file.
func (lg *IngestLog) Close() error { return lg.f.Close() }

func encodeIngestBatch(ops []IngestOp) []byte {
	b := binary.BigEndian.AppendUint32(make([]byte, 4), uint32(len(ops))) // the payload length is patched below
	for _, op := range ops {
		b = binary.BigEndian.AppendUint32(append(b, op.Kind), op.Rec)
		if op.Kind == IngestOpInsert {
			b = append(binary.BigEndian.AppendUint32(b, uint32(len(op.XML))), op.XML...)
		}
	}
	binary.BigEndian.PutUint32(b, uint32(len(b)-4))
	return binary.BigEndian.AppendUint32(b, crc32.Checksum(b[4:], journalCRC))
}

func decodeIngestBatch(payload []byte) ([]IngestOp, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("core: ingest batch too short")
	}
	nops := binary.BigEndian.Uint32(payload)
	if nops > maxIngestBatchOps {
		return nil, fmt.Errorf("core: ingest batch claims %d ops", nops)
	}
	pos := 4
	ops := make([]IngestOp, 0, nops)
	for i := uint32(0); i < nops; i++ {
		if pos+5 > len(payload) {
			return nil, fmt.Errorf("core: ingest batch truncated at op %d", i)
		}
		op := IngestOp{Kind: payload[pos], Rec: binary.BigEndian.Uint32(payload[pos+1:])}
		pos += 5
		switch op.Kind {
		case IngestOpInsert:
			if pos+4 > len(payload) {
				return nil, fmt.Errorf("core: ingest batch truncated at op %d", i)
			}
			n := int(binary.BigEndian.Uint32(payload[pos:]))
			pos += 4
			if n < 0 || n > len(payload)-pos {
				return nil, fmt.Errorf("core: ingest batch truncated at op %d", i)
			}
			op.XML = payload[pos : pos+n : pos+n]
			pos += n
		case IngestOpDelete:
		default:
			return nil, fmt.Errorf("core: unknown ingest op kind %d", op.Kind)
		}
		ops = append(ops, op)
	}
	if pos != len(payload) {
		return nil, fmt.Errorf("core: %d trailing bytes in ingest batch", len(payload)-pos)
	}
	return ops, nil
}

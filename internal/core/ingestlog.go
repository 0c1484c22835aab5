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
// and nothing reads the log any more: only the writer remains, which the
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
const ingestMagic = "FIXWAL01"

const ingestHeaderSize = 8 + 4 + 8 + 4

// Kinds of ingest log operations.
const (
	// IngestOpInsert appends a document; Rec is the record number the
	// append produced, XML the raw document text.
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

// Size returns the byte size of the log.
func (lg *IngestLog) Size() int64 { return lg.size }

// AppendBatch encodes the batch, appends it and fsyncs — the single
// group-commit fsync that made every operation in the batch durable at
// once.
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

package storage

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
)

// Batch trailers. A group commit appends its records, then one trailer,
// and syncs the heap: the sync is the batch's durability point, and the
// trailer is what makes the batch whole on the next open. Its layout:
//
//	tag     u8, 0x80 | 0x01 when the deletes follow | 0x02 when the labels follow
//	deletes uvarint count, then the batch's deleted records ascending,
//	        each a uvarint delta from the one before (the first from 0)
//	labels  uvarint count, then each label a uvarint length and its bytes:
//	        the dictionary IDs assigned since the trailer before, in ID order,
//	        but for those labels.dict already held (LabelsSaved)
//	crc     u32, big-endian: CRC-32C of every heap byte from the end of the
//	        trailer before (or of the magic) to here
//
// A batch that adds documents and no new label costs 5 bytes. Open reads
// labels.dict, the dictionary as of the last checkpoint, and adds the
// labels the trailers name that it lacks, in order: they are the IDs
// assigned since, as the trailers name every ID past what labels.dict
// held when they were sealed.

// castagnoli is the CRC-32C table of the trailers.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Trailer tag bits.
const (
	trailerTag     = 0x80
	trailerDeletes = 0x01
	trailerLabels  = 0x02
)

// Seal ends the open batch with its trailer and writes nothing when the
// batch is empty: no record, delete or label since the last trailer. The
// batch is durable once the file is synced after it; until then Rollback
// discards trailer and batch alike.
func (s *Store) Seal() error {
	n := s.dict.Len()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.end == s.sealed && len(s.pending) == 0 && n <= s.labels {
		return nil
	}
	if s.torn > 0 {
		return fmt.Errorf("storage: sealing a batch: %d bytes past the last good trailer at %d", s.torn, s.end)
	}
	t := []byte{trailerTag}
	if len(s.pending) > 0 {
		t[0] |= trailerDeletes
		dels := slices.Clone(s.pending)
		slices.Sort(dels)
		t = binary.AppendUvarint(t, uint64(len(dels)))
		prev := uint32(0)
		for _, r := range dels {
			t = binary.AppendUvarint(t, uint64(r-prev))
			prev = r
		}
	}
	if n > s.labels {
		t[0] |= trailerLabels
		t = binary.AppendUvarint(t, uint64(n-s.labels))
		for id := s.labels + 1; id <= n; id++ {
			l := s.dict.Label(uint32(id))
			t = append(binary.AppendUvarint(t, uint64(len(l))), l...)
		}
	}
	t = binary.BigEndian.AppendUint32(t, crc32.Update(s.crc, castagnoli, t))
	if _, err := s.f.WriteAt(t, s.end); err != nil {
		return fmt.Errorf("storage: writing a batch trailer: %w", err)
	}
	s.end += int64(len(t))
	s.sealed, s.crc, s.labels = s.end, 0, n
	s.pending = s.pending[:0]
	s.stats.BytesWritten += int64(len(t))
	return nil
}

// LabelsSaved records that labels.dict durably holds the dictionary's
// first n labels, so that no trailer sealed after need name them.
func (s *Store) LabelsSaved(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.labels = max(s.labels, n)
}

// heapCursor decodes a heap file's first size bytes from pos on through
// one reused window, so stepping over small records costs one read per
// window, not one per record. A read past size sets bad and short, a
// failed one bad and err.
type heapCursor struct {
	f         File
	size, pos int64
	buf       []byte // the file's bytes from off
	off       int64
	bad       bool
	short     bool // bad because an item runs past size
	err       error
}

// bytes returns the n bytes at pos and moves past them; they are valid
// until the next call.
func (c *heapCursor) bytes(n int) []byte {
	if c.bad {
		return nil
	}
	if n < 0 || c.pos+int64(n) > c.size {
		c.bad, c.short = true, n >= 0
		return nil
	}
	if c.pos < c.off || c.pos+int64(n) > c.off+int64(len(c.buf)) {
		w := int(min(max(int64(n), 64<<10), c.size-c.pos))
		c.buf, c.off = slices.Grow(c.buf[:0], w)[:w], c.pos
		if _, err := c.f.ReadAt(c.buf, c.pos); err != nil {
			c.buf, c.bad = c.buf[:0], true
			c.err = fmt.Errorf("storage: reading the heap at %d: %w", c.pos, err)
			return nil
		}
	}
	i := c.pos - c.off
	c.pos += int64(n)
	return c.buf[i : i+int64(n)]
}

// ReadByte makes the cursor an io.ByteReader for binary.ReadUvarint.
func (c *heapCursor) ReadByte() (byte, error) {
	if b := c.bytes(1); b != nil {
		return b[0], nil
	}
	return 0, io.ErrUnexpectedEOF
}

// runsPast reports, and marks the cursor bad and short, when fewer than n
// bytes are left: n counts what each take at least a byte.
func (c *heapCursor) runsPast(n uint64) bool {
	if !c.bad && n > uint64(c.size-c.pos) {
		c.bad, c.short = true, true
	}
	return c.bad
}

func (c *heapCursor) uvarint() uint64 {
	v, err := binary.ReadUvarint(c)
	c.bad = c.bad || err != nil
	return v
}

// sum returns the CRC-32C of the bytes from start to end, and leaves the
// cursor at end.
func (c *heapCursor) sum(start, end int64) uint32 {
	var sum uint32
	for c.pos = start; c.pos < end && !c.bad; {
		sum = crc32.Update(sum, castagnoli, c.bytes(int(min(end-c.pos, 64<<10))))
	}
	return sum
}

// trailer is one trailer as next decodes it.
type trailer struct {
	crcAt  int64 // where its CRC lies; the trailer ends 4 bytes on
	dels   []uint32
	labels []string
}

// next steps over the item at pos in a heap of records records by then:
// a record, whose length it returns, or a trailer, which it returns
// decoded. It sets bad when the item does not decode — a delete out of
// order or out of range, an unknown tag bit, a count of zero — and short
// as well when it runs past the end: a length, a count or a label the
// bytes left cannot hold.
func (c *heapCursor) next(records int) (n int, t *trailer) {
	b := c.bytes(1)
	if b == nil {
		return 0, nil
	}
	if tag := b[0]; tag < trailerTag {
		c.pos--
		if b = c.bytes(4); b != nil {
			n = int(binary.BigEndian.Uint32(b))
			c.short = c.pos+int64(n) > c.size
			c.bad = c.short
			c.pos += int64(n)
		}
		return n, nil
	} else if tag&^(trailerTag|trailerDeletes|trailerLabels) != 0 {
		c.bad = true
	} else {
		t = &trailer{}
		if tag&trailerDeletes != 0 {
			count, prev := c.uvarint(), uint64(0)
			c.bad = c.bad || count == 0 || count > uint64(records)
			c.runsPast(count)
			for i := uint64(0); i < count && !c.bad; i++ {
				d := c.uvarint()
				c.bad = c.bad || (i > 0 && d == 0) || prev+d >= uint64(records)
				prev += d
				t.dels = append(t.dels, uint32(prev))
			}
		}
		if tag&trailerLabels != 0 {
			count := c.uvarint()
			c.bad = c.bad || count == 0
			c.runsPast(count)
			for i := uint64(0); i < count && !c.bad; i++ {
				if l := c.uvarint(); !c.runsPast(l) {
					t.labels = append(t.labels, string(c.bytes(int(l))))
				}
			}
		}
		t.crcAt = c.pos
		c.bytes(4)
	}
	return 0, t
}

// scan rebuilds the store from the first size bytes of its file: the
// records, the tombstones and the dictionary labels of every batch up to
// the last trailer that checks. Every trailer before the last was synced
// before anything after it was written, so only the trailers from the end
// back to the first that checks are checksummed. What follows that one is
// left in the file as the torn tail.
//
// A crash cuts short the open batch alone, which holds no trailer yet: its
// records, then at most one item — a record or the trailer — the end of
// the file cuts off. Anything else past the good trailer may hold a
// sealed batch, and so acknowledged writes: a trailer, an item that does
// not decode, or a record running past the end of a file that ends in
// bytes that decode as a trailer — a damaged length hiding the batches
// after it. scan marks such a tail sealed, and DropTornTail then refuses
// it.
func (s *Store) scan(size int64) error {
	c := &heapCursor{f: s.own, size: size, pos: int64(len(storeMagic))}
	type seal struct {
		start, crcAt          int64
		records, dels, labels int
	}
	var (
		seals  []seal
		dels   []deletion
		labels []string
	)
	for start := c.pos; c.pos < size; {
		pos := c.pos
		n, t := c.next(len(s.offs))
		if c.bad {
			c.pos = pos
			break
		}
		if t == nil {
			s.offs, s.lens = append(s.offs, pos), append(s.lens, uint32(n))
			continue
		}
		for _, rec := range t.dels {
			dels = append(dels, deletion{rec, len(s.offs)})
		}
		labels = append(labels, t.labels...)
		seals = append(seals, seal{start, t.crcAt, len(s.offs), len(dels), len(labels)})
		start = c.pos
	}
	stop, short, cutRecord := c.pos, c.short, false
	if c.bad = false; short {
		b := c.bytes(1)
		cutRecord = b != nil && b[0] < trailerTag
	}
	good, kept := seal{crcAt: int64(len(storeMagic)) - 4}, 0
	for i := len(seals) - 1; i >= 0 && c.err == nil; i-- {
		c.bad = false
		sum := c.sum(seals[i].start, seals[i].crcAt)
		if b := c.bytes(4); b != nil && binary.BigEndian.Uint32(b) == sum {
			good, kept = seals[i], i+1
			break
		}
	}
	s.sealedTail = kept < len(seals) || stop < size && (!short || cutRecord && c.trailerEnds(stop+4))
	if c.err != nil {
		return c.err
	}
	s.offs, s.lens = s.offs[:good.records], s.lens[:good.records]
	s.end = good.crcAt + 4
	s.sealed, s.torn = s.end, size-s.end
	for _, l := range labels[:good.labels] {
		s.dict.ID(l)
	}
	s.labels = s.dict.Len()
	s.opened = dels[:good.dels]
	for _, d := range s.opened {
		s.deleted.set(d.rec)
	}
	return nil
}

// trailerEnds reports whether the bytes from some offset at or past from
// decode as a whole trailer that ends where the file does.
func (c *heapCursor) trailerEnds(from int64) bool {
	for p := from; p+5 <= c.size && c.err == nil; p++ {
		c.bad, c.pos = false, p
		if b := c.bytes(1); b == nil || b[0] < trailerTag {
			continue
		}
		c.pos = p
		if _, t := c.next(math.MaxInt32); !c.bad && t.crcAt+4 == c.size {
			return true
		}
	}
	return false
}

// deletion is a delete a trailer OpenStore read carries, with the record
// count of the heap its batch sealed.
type deletion struct {
	rec     uint32
	records int
}

// DeletedSince returns the records deleted by the batches OpenStore read
// that sealed records records or more: the batch that sealed record
// records-1 and every batch after it. An index committed over the first
// records records holds the deletes of every batch before that one, which
// its commit followed; of that batch and those after, it may hold none.
func (s *Store) DeletedSince(records int) []uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, _ := slices.BinarySearchFunc(s.opened, records, func(d deletion, r int) int { return cmp.Compare(d.records, r) })
	var recs []uint32
	for _, d := range s.opened[i:] {
		recs = append(recs, d.rec)
	}
	return recs
}

// Walk reads the sealed part of the heap, front to back, from the
// store's own file and through one reused buffer, checks every trailer's
// CRC, and hands visit each record's number and bytes, valid until it
// returns. The reads are not a query's: they count nowhere and leave the
// record cache alone. A batch rolled back under the walk ends it early
// and clean. It returns the records it visited.
func (s *Store) Walk(visit func(rec uint32, b []byte) error) (int, error) {
	s.mu.Lock()
	limit, rolls := s.sealed, s.rolls
	s.mu.Unlock()
	c := &heapCursor{f: s.own, size: limit, pos: int64(len(storeMagic))}
	rec, sum := 0, uint32(0)
	var err error
	for c.pos < limit && err == nil {
		pos := c.pos
		n, t := c.next(rec)
		c.pos = pos
		switch {
		case c.bad:
			err = fmt.Errorf("storage: the heap item at %d runs past the last trailer or does not decode", pos)
		case t == nil:
			b := c.bytes(4 + n)
			sum = crc32.Update(sum, castagnoli, b)
			err = visit(uint32(rec), b[4:])
			rec++
		default:
			b := c.bytes(int(t.crcAt-pos) + 4)
			if crc32.Update(sum, castagnoli, b[:len(b)-4]) != binary.BigEndian.Uint32(b[len(b)-4:]) {
				err = fmt.Errorf("storage: the batch before the trailer at %d fails its CRC", pos)
			}
			sum = 0
		}
	}
	if c.err != nil {
		err = c.err
	}
	if err != nil {
		s.mu.Lock()
		rolledBack := s.rolls != rolls
		s.mu.Unlock()
		if rolledBack {
			return rec, nil
		}
	}
	return rec, err
}

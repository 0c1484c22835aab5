// Package core implements the FIX index itself: construction of feature
// keys from bisimulation graphs (paper §4), the index and its offline
// clustered copy (§4.1), query processing with eigenvalue-range pruning
// and NoK refinement (paper §5), the value-node extension (§4.6), and the
// implementation-independent metrics of the evaluation (§6.2).
package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/fix-index/fix/internal/storage"
)

// Feature keys sort by (root label, σ, pointer), σ being the largest
// eigenvalue magnitude of the unit's skew-symmetric matrix. The paper keys
// on (λmin, λmax), but the spectrum is {±iσ}, so λmin = −σ and λmax = σ on
// every entry and one σ is all the key holds (DESIGN.md "Mathematical
// note"). The containment search "entries with σ_e >= σ_q within a label
// partition" becomes a single range scan. Entries of equal features are a
// run, and a run is stored as chunks: one B-tree entry per chunk, keyed by
// the run's (label, σ) and the chunk's first primary pointer (rec<<32 | off,
// big-endian), whose value holds the chunk's postings — every pointer of
// the chunk in ascending order, delta coded (the chunk codec below). The
// chunks of a run follow each other: each holds pointers above every one
// the chunk before it holds.
const keySize = 4 + 8 + 8

// encodeFloat maps a float64 to 8 bytes whose lexicographic order matches
// numeric order (including negatives, ±Inf).
func encodeFloat(v float64) uint64 {
	bits := math.Float64bits(v)
	if bits&(1<<63) != 0 {
		return ^bits
	}
	return bits | 1<<63
}

// decodeFloat inverts encodeFloat.
func decodeFloat(u uint64) float64 {
	if u&(1<<63) != 0 {
		return math.Float64frombits(u &^ (1 << 63))
	}
	return math.Float64frombits(^u)
}

// entryKey is the decoded form of a B-tree key.
type entryKey struct {
	label uint32
	sigma float64
	first storage.Pointer
}

// putKey writes a key whose σ is already in encodeFloat form into
// buf[:keySize]. Comparing (label, sigma, first) as unsigned integers
// orders chunks exactly as their key bytes do.
func putKey(buf []byte, label uint32, sigma uint64, first storage.Pointer) {
	binary.BigEndian.PutUint32(buf[0:4], label)
	binary.BigEndian.PutUint64(buf[4:12], sigma)
	binary.BigEndian.PutUint64(buf[12:20], uint64(first))
}

// decodeKey decodes a key of keySize bytes: a key read from a B-tree has
// its length checked first (errBadKey), as the probe and Verify do.
func decodeKey(buf []byte) entryKey {
	return entryKey{
		label: binary.BigEndian.Uint32(buf[0:4]),
		sigma: decodeFloat(binary.BigEndian.Uint64(buf[4:12])),
		first: keyPointer(buf),
	}
}

// keyPointer returns the first pointer of the chunk under key buf.
func keyPointer(buf []byte) storage.Pointer {
	return storage.Pointer(binary.BigEndian.Uint64(buf[12:20]))
}

// runBounds returns the [from, to) key range of the run of (label, σ),
// σ in encodeFloat form: every chunk of the run and nothing else. (σ is a
// number, +Inf at most, so σ+1 does not wrap: only NaNs spell as high.)
func runBounds(label uint32, sigma uint64) (from, to []byte) {
	from = binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint32(make([]byte, 0, 12), label), sigma)
	to = binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint32(make([]byte, 0, 12), label), sigma+1)
	return from, to
}

// errBadKey is the error of an entry whose key k is not keySize bytes.
func errBadKey(k []byte) error {
	return fmt.Errorf("%w: entry key %x is %d bytes, want %d", ErrCorrupt, k, len(k), keySize)
}

// scanBounds returns the [from, to) key range of the containment search
// for a query with the given root label and σ: all entries of the label
// partition whose σ is at least the query's.
func scanBounds(label uint32, querySigma float64) (from, to []byte) {
	from = make([]byte, 12)
	binary.BigEndian.PutUint32(from[0:4], label)
	binary.BigEndian.PutUint64(from[4:12], encodeFloat(querySigma))
	to = make([]byte, 4)
	binary.BigEndian.PutUint32(to[0:4], label+1)
	return from, to
}

// The pair sketch. Every chunk carries a sketchBits-bit summary of the
// (parent label, child label) edge pairs its units contain: the pair of
// EdgeEncoder weight w sets bit (w−1) mod sketchBits. An embedding of a
// twig maps each of its child edges onto an edge of the unit with the same
// two labels, so a unit that matches holds every pair of the twig, and a
// chunk whose sketch — the OR over its postings — lacks a bit of the
// query's holds no unit that matches (Generation.candidates). Weights are
// dense and fixed when a pair is first seen, so the first sketchBits pairs
// of an index get a bit each. An oversize unit, whose pairs are not
// enumerated, gets every bit (fullSketch). The width is the widest the
// ablation (fixbench -exp sketch) found to fit the disk budget: 32 bits
// cost an ingest-grown index up to 1.4 % more bytes. DESIGN.md "Pair
// sketch" has the measurements behind the width and behind one sketch a
// chunk.
const (
	sketchBits  = 24
	sketchBytes = sketchBits / 8
	fullSketch  = uint32(1<<sketchBits - 1)
)

// pairBit returns the sketch bit of the edge pair of weight w.
func pairBit(w int32) uint32 { return 1 << (uint32(w-1) % sketchBits) }

// The chunk codec. A chunk value is
//
//	uvarint n<<3 | d          n >= 1 postings; d: the depth, 0 to maxAlike,
//	                          to which every unit agrees with the first
//	                          (agreement)
//	sketch                    sketchBytes, big-endian
//	n-1 times, each posting after the one before it:
//	  uvarint Δoff<<1                   in the same record, Δoff >= 1
//	  or uvarint Δrec<<1 | 1,
//	     uvarint off                    in a record Δrec >= 1 further on
//
// The first posting's pointer is the key's. A depth-limited run is mostly
// postings of one record a few hundred bytes apart, a collection index's
// one posting a record at offset 0, so a posting takes one to three bytes
// either way, and the head takes one byte up to 15 postings.
//
// maxChunkBytes caps a chunk's value: a chunk is closed when the next
// posting would take it past the cap, or past the largest value its tree
// takes under a key (Tree.MaxValue), whichever is smaller. A live append
// walks and rewrites its run's last chunk, so the cap bounds that work; a
// full chunk's key costs under a tenth of a byte a posting. Measured on an
// XMark entity stream ingested four documents a request into a depth-6
// index, 256 bytes left 4.53 B per entry and 512 bytes 4.36 (DESIGN.md
// "Postings").
const maxChunkBytes = 512

// chunk is a chunk value being built, posting by posting, in ascending
// pointer order.
type chunk struct {
	first, last storage.Pointer
	n           int
	alike       int    // the depth to which the units agree, 0 to maxAlike; a caller lowers it
	sketch      uint32 // the OR of the postings' sketches
	body        []byte // the value past its head and sketch
}

// reset empties the chunk, keeping its buffer.
func (c *chunk) reset() { *c = chunk{body: c.body[:0]} }

// add appends the posting of pointer p and pair sketch sk; p must be above
// every pointer the chunk holds.
func (c *chunk) add(p storage.Pointer, sk uint32) {
	switch {
	case c.n == 0:
		c.first, c.alike = p, maxAlike
	case p.Rec() == c.last.Rec():
		c.body = binary.AppendUvarint(c.body, uint64(p.Off()-c.last.Off())<<1)
	default:
		c.body = binary.AppendUvarint(c.body, uint64(p.Rec()-c.last.Rec())<<1|1)
		c.body = binary.AppendUvarint(c.body, uint64(p.Off()))
	}
	c.sketch |= sk
	c.last = p
	c.n++
}

// fits adds the posting unless the chunk holds one already and the value
// would then be more than limit bytes, and reports whether it did.
func (c *chunk) fits(p storage.Pointer, sk uint32, limit int) bool {
	if c.n == 0 {
		c.add(p, sk)
		return true
	}
	undo := *c
	if c.add(p, sk); c.size() > limit {
		*c = undo
		return false
	}
	return true
}

// load makes c the chunk of value v, whose first pointer is first, with
// its body copied as it lies, and reports whether v reads whole.
func (c *chunk) load(first storage.Pointer, v []byte) bool {
	r := openPostings(first, v)
	n, sk := r.count(), r.sketch
	for r.next() {
	}
	if !r.ok() {
		return false
	}
	_, m := readUvarint(v)
	*c = chunk{first: first, last: r.ptr, n: n, alike: r.alike, sketch: sk, body: append(c.body[:0], v[m+sketchBytes:]...)}
	return true
}

// head returns the uvarint the value starts with.
func (c *chunk) head() uint64 { return uint64(c.n)<<3 | uint64(c.alike) }

// size returns the bytes of the value.
func (c *chunk) size() int {
	var b [binary.MaxVarintLen64]byte
	return binary.PutUvarint(b[:], c.head()) + sketchBytes + len(c.body)
}

// appendTo appends the value to buf.
func (c *chunk) appendTo(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, c.head())
	for i := sketchBytes - 1; i >= 0; i-- {
		buf = append(buf, byte(c.sketch>>(8*i)))
	}
	return append(buf, c.body...)
}

// postings reads the postings of one chunk value in order: next steps to
// the next one and reports whether there was one; ptr is the posting read
// last, sketch and alike the chunk's. A value that is not spelled exactly
// as chunk spells some chunk — a uvarint that runs off the end, takes more
// bytes than it needs or overflows, a step of zero, a pointer half beyond
// a u32, bytes left over, a value over maxChunkBytes — ends the walk early
// with ok false. So what reads whole re-encodes to the value byte for byte
// (FuzzPostingChunk).
type postings struct {
	rest    []byte
	left    int // postings not yet read
	ptr     storage.Pointer
	sketch  uint32
	alike   int
	started bool // the first posting, the key's pointer, has been read
	bad     bool
}

// openPostings starts reading the value v of the chunk whose first pointer
// is first. A head or sketch that does not decode leaves nothing to read
// and ok false.
func openPostings(first storage.Pointer, v []byte) postings {
	head, n := readUvarint(v)
	if n == 0 || head>>3 == 0 || head>>3 > maxChunkBytes || len(v) > maxChunkBytes || len(v) < n+sketchBytes {
		return postings{bad: true}
	}
	r := postings{rest: v[n+sketchBytes:], left: int(head >> 3), ptr: first, alike: int(head & maxAlike)}
	for _, b := range v[n : n+sketchBytes] {
		r.sketch = r.sketch<<8 | uint32(b)
	}
	return r
}

// count returns, before the first next, the postings of the chunk: 0 if
// its head did not decode.
func (r *postings) count() int { return r.left }

// ok reports whether the walk so far met nothing but a canonical chunk;
// after next returned false, that the value was one.
func (r *postings) ok() bool { return !r.bad }

func (r *postings) next() bool {
	if r.left == 0 {
		r.bad = r.bad || len(r.rest) != 0
		return false
	}
	r.left--
	if !r.started {
		r.started = true
		return true
	}
	head, n := uint64(0), 1
	if len(r.rest) > 0 && r.rest[0] < 0x80 { // as most are
		head = uint64(r.rest[0])
	} else if head, n = readUvarint(r.rest); n == 0 {
		return r.fail()
	}
	r.rest = r.rest[n:]
	if d := head >> 1; head&1 == 0 {
		if d == 0 || uint64(r.ptr.Off())+d > math.MaxUint32 {
			return r.fail()
		}
		r.ptr += storage.Pointer(d)
	} else {
		off, m := readUint32(r.rest)
		if m == 0 || d == 0 || uint64(r.ptr.Rec())+d > math.MaxUint32 {
			return r.fail()
		}
		r.rest, r.ptr = r.rest[m:], storage.MakePointer(r.ptr.Rec()+uint32(d), off)
	}
	return true
}

func (r *postings) fail() bool {
	r.bad, r.left = true, 0
	return false
}

// errBadValue is the error of a chunk, key k, whose value v does not
// decode.
func errBadValue(k, v []byte) error {
	return fmt.Errorf("%w: entry %x has a value that does not decode: %x", ErrCorrupt, k, v)
}

// readUvarint reads the uvarint at the start of buf and the bytes it
// takes, n = 0 unless it ends, fits a u64 and is the shortest spelling of
// its value (only a one-byte uvarint may end in a zero byte).
func readUvarint(buf []byte) (x uint64, n int) {
	x, n = binary.Uvarint(buf)
	if n <= 0 || (n > 1 && buf[n-1] == 0) {
		return 0, 0
	}
	return x, n
}

// readUint32 is readUvarint of a value that must fit a u32.
func readUint32(buf []byte) (x uint32, n int) {
	u, n := readUvarint(buf)
	if n == 0 || u > math.MaxUint32 {
		return 0, 0
	}
	return uint32(u), n
}

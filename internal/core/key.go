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

// Feature keys sort by (root label, σ, sequence number), σ being the
// largest eigenvalue magnitude of the unit's skew-symmetric matrix. The
// paper keys on (λmin, λmax), but the spectrum is {±iσ}, so λmin = −σ and
// λmax = σ on every entry and one σ is all the key holds (DESIGN.md
// "Mathematical note"). The containment search "entries with σ_e >= σ_q
// within a label partition" becomes a single range scan; the sequence
// number makes keys unique so equal features coexist. Entries of equal
// features are a run of keys that differ in the last bytes of the
// sequence number only, and those bytes are what a B-tree leaf stores of
// them (btree/node.go).
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
	seq   uint64
}

func (k entryKey) encode() []byte {
	buf := make([]byte, keySize)
	putKey(buf, k.label, encodeFloat(k.sigma), k.seq)
	return buf
}

// putKey writes a key whose σ is already in encodeFloat form into
// buf[:keySize]. Comparing (label, sigma, seq) as unsigned integers orders
// entries exactly as their key bytes do.
func putKey(buf []byte, label uint32, sigma, seq uint64) {
	binary.BigEndian.PutUint32(buf[0:4], label)
	binary.BigEndian.PutUint64(buf[4:12], sigma)
	binary.BigEndian.PutUint64(buf[12:20], seq)
}

// decodeKey decodes a key of keySize bytes: a key read from a B-tree has
// its length checked first (errBadKey), as the probe and Verify do.
func decodeKey(buf []byte) entryKey {
	return entryKey{
		label: binary.BigEndian.Uint32(buf[0:4]),
		sigma: decodeFloat(binary.BigEndian.Uint64(buf[4:12])),
		seq:   binary.BigEndian.Uint64(buf[12:20]),
	}
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

// maxSpectrumK caps Options.SpectrumK: the most spectrum components a value
// stores.
const maxSpectrumK = 8

// entryValue is the decoded form of a B-tree value:
//
//	uvarint uvarint     primary pointer: record, offset in the record
//	[k × 8 bytes]       σ₂..σ₍k+1₎ of the entry's pattern (σ₁ is the key's
//	                    σ), for the optional spectrum filter (§3.3)
//
// A value holds only what its entry knows: the tail's k is what the
// pointer leaves, 8 bytes a component. A pointer's halves are small —
// record numbers in the thousands, offsets inside one document — so two
// uvarints spell one in 2 to 5 bytes.
type entryValue struct {
	primary  storage.Pointer
	spectrum []float64
}

// maxValueSize bounds the bytes of a value.
const maxValueSize = 2*binary.MaxVarintLen32 + 8*maxSpectrumK

// encode returns the value.
func (v entryValue) encode() []byte {
	return v.appendTo(make([]byte, 0, 2*binary.MaxVarintLen32+8*len(v.spectrum)))
}

// appendTo appends the value to buf.
func (v entryValue) appendTo(buf []byte) []byte {
	buf = appendPointer(buf, v.primary)
	for _, s := range v.spectrum {
		buf = binary.BigEndian.AppendUint64(buf, encodeFloat(s))
	}
	return buf
}

func appendPointer(buf []byte, p storage.Pointer) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(buf, uint64(p.Rec())), uint64(p.Off()))
}

// decodeValue decodes a value. ok is false unless buf is spelled exactly
// as appendTo spells some value: a pointer half that runs off the end,
// exceeds a u32 or takes more bytes than it needs, or a tail that is not
// whole components or holds more than maxSpectrumK, does not decode. So
// what decodes re-encodes to buf byte for byte (FuzzEntryValue).
func decodeValue(buf []byte) (v entryValue, ok bool) {
	var n int
	if v.primary, n = readPointer(buf); n == 0 {
		return entryValue{}, false
	}
	buf = buf[n:]
	if len(buf)%8 != 0 || len(buf) > 8*maxSpectrumK {
		return entryValue{}, false
	}
	for ; len(buf) > 0; buf = buf[8:] {
		v.spectrum = append(v.spectrum, decodeFloat(binary.BigEndian.Uint64(buf)))
	}
	return v, true
}

// errBadValue is the error of an entry, key k, whose value v does not
// decode.
func errBadValue(k, v []byte) error {
	return fmt.Errorf("%w: entry %x has a value that does not decode: %x", ErrCorrupt, k, v)
}

// readPointer reads the pointer at the start of buf and the bytes it
// takes, n = 0 if there is none.
func readPointer(buf []byte) (p storage.Pointer, n int) {
	rec, a := readUint32(buf)
	if a == 0 {
		return 0, 0
	}
	off, b := readUint32(buf[a:])
	if b == 0 {
		return 0, 0
	}
	return storage.MakePointer(rec, off), a + b
}

// readUint32 reads the uvarint at the start of buf and the bytes it takes,
// n = 0 unless it ends, fits a u32 and is the shortest spelling of its
// value (only a one-byte uvarint may end in a zero byte).
func readUint32(buf []byte) (x uint32, n int) {
	u, n := binary.Uvarint(buf)
	if n <= 0 || u > math.MaxUint32 || (n > 1 && buf[n-1] == 0) {
		return 0, 0
	}
	return uint32(u), n
}

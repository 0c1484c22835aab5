// Package core implements the FIX index itself: construction of feature
// keys from bisimulation graphs (paper §4), clustered and unclustered
// index layouts, query processing with eigenvalue-range pruning and NoK
// refinement (paper §5), the value-node extension (§4.6), and the
// implementation-independent metrics of the evaluation (§6.2).
package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/fix-index/fix/internal/storage"
)

// Feature keys sort by (root label, λmax, λmin, sequence number). The
// containment search "entries with λmax_e >= λmax_q within a label
// partition" becomes a single range scan; the sequence number makes keys
// unique so equal features coexist. λmin prunes nothing: the matrix is
// skew-symmetric, so λmin = -λmax on every entry and the test on it repeats
// the one on λmax (ROADMAP item 3(a)). Entries of equal features are a run
// of keys that differ in the last bytes of the sequence number only, and
// those bytes are what a B-tree leaf stores of them (btree/node.go).
const keySize = 4 + 8 + 8 + 8

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
	label    uint32
	max, min float64
	seq      uint64
}

func (k entryKey) encode() []byte {
	buf := make([]byte, keySize)
	putKey(buf, k.label, encodeFloat(k.max), encodeFloat(k.min), k.seq)
	return buf
}

// putKey writes a key whose eigenvalues are already in encodeFloat form
// into buf[:keySize]. Comparing (label, max, min, seq) as unsigned
// integers orders entries exactly as their key bytes do.
func putKey(buf []byte, label uint32, max, min, seq uint64) {
	binary.BigEndian.PutUint32(buf[0:4], label)
	binary.BigEndian.PutUint64(buf[4:12], max)
	binary.BigEndian.PutUint64(buf[12:20], min)
	binary.BigEndian.PutUint64(buf[20:28], seq)
}

func decodeKey(buf []byte) entryKey {
	return entryKey{
		label: binary.BigEndian.Uint32(buf[0:4]),
		max:   decodeFloat(binary.BigEndian.Uint64(buf[4:12])),
		min:   decodeFloat(binary.BigEndian.Uint64(buf[12:20])),
		seq:   binary.BigEndian.Uint64(buf[20:28]),
	}
}

// scanBounds returns the [from, to) key range of the containment search
// for a query with the given root label and λmax: all entries of the
// label partition whose λmax is at least the query's.
func scanBounds(label uint32, queryMax float64) (from, to []byte) {
	from = make([]byte, 12)
	binary.BigEndian.PutUint32(from[0:4], label)
	binary.BigEndian.PutUint64(from[4:12], encodeFloat(queryMax))
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
//	[uvarint uvarint]   clustered pointer, in a clustered index only
//	[k × 8 bytes]       σ₂..σ₍k+1₎ of the entry's pattern (σ₁ is the key's
//	                    λmax), for the optional spectrum filter (§3.3)
//
// A value holds only what its entry knows. Whether a clustered pointer
// follows is the index's Clustered option, the same for every entry, and
// the tail's k is what the pointers leave, 8 bytes a component. A
// pointer's halves are small — record numbers in the thousands, offsets
// inside one document — so two uvarints spell one in 2 to 5 bytes.
type entryValue struct {
	primary   storage.Pointer
	clustered storage.Pointer
	spectrum  []float64
}

// maxValueSize bounds the bytes of a value.
const maxValueSize = 4*binary.MaxVarintLen32 + 8*maxSpectrumK

// encode returns the value of an index whose Clustered option is clustered.
func (v entryValue) encode(clustered bool) []byte {
	size := 2*binary.MaxVarintLen32 + 8*len(v.spectrum)
	if clustered {
		size += 2 * binary.MaxVarintLen32
	}
	return v.appendTo(make([]byte, 0, size), clustered)
}

// appendTo appends the value of an index whose Clustered option is
// clustered to buf.
func (v entryValue) appendTo(buf []byte, clustered bool) []byte {
	buf = appendPointer(buf, v.primary)
	if clustered {
		buf = appendPointer(buf, v.clustered)
	}
	for _, s := range v.spectrum {
		buf = binary.BigEndian.AppendUint64(buf, encodeFloat(s))
	}
	return buf
}

func appendPointer(buf []byte, p storage.Pointer) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(buf, uint64(p.Rec())), uint64(p.Off()))
}

// decodeValue decodes the value of an index whose Clustered option is
// clustered. ok is false unless buf is spelled exactly as appendTo spells
// some value: a pointer half that runs off the end, exceeds a u32 or takes
// more bytes than it needs, or a tail that is not whole components or holds
// more than maxSpectrumK, does not decode. So what decodes re-encodes to buf
// byte for byte (FuzzEntryValue).
func decodeValue(buf []byte, clustered bool) (v entryValue, ok bool) {
	var n int
	if v.primary, n = readPointer(buf); n == 0 {
		return entryValue{}, false
	}
	buf = buf[n:]
	if clustered {
		if v.clustered, n = readPointer(buf); n == 0 {
			return entryValue{}, false
		}
		buf = buf[n:]
	}
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

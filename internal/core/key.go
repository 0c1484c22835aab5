// Package core implements the FIX index itself: construction of feature
// keys from bisimulation graphs (paper §4), clustered and unclustered
// index layouts, query processing with eigenvalue-range pruning and NoK
// refinement (paper §5), the value-node extension (§4.6), and the
// implementation-independent metrics of the evaluation (§6.2).
package core

import (
	"encoding/binary"
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

// entryValue is the decoded form of a B-tree value:
//
//	byte 0          flags: bit 0 = clustered pointer present,
//	                bits 4-7 = number of stored spectrum components
//	bytes 1-8       primary pointer
//	[bytes 9-16]    clustered pointer
//	[k × 8 bytes]   σ₂..σ₍k+1₎ of the entry's pattern (σ₁ is the key's
//	                λmax), for the optional spectrum filter (§3.3)
type entryValue struct {
	primary   uint64
	clustered uint64
	hasCopy   bool
	spectrum  []float64
}

func (v entryValue) encode() []byte {
	return v.appendTo(make([]byte, 0, 17+8*len(v.spectrum)))
}

// appendTo appends the encoded value to buf.
func (v entryValue) appendTo(buf []byte) []byte {
	flags := byte(len(v.spectrum)) << 4
	if v.hasCopy {
		flags |= 1
	}
	buf = append(buf, flags)
	buf = binary.BigEndian.AppendUint64(buf, v.primary)
	if v.hasCopy {
		buf = binary.BigEndian.AppendUint64(buf, v.clustered)
	}
	for _, s := range v.spectrum {
		buf = binary.BigEndian.AppendUint64(buf, encodeFloat(s))
	}
	return buf
}

// valuePrimary reads the primary pointer of an encoded value where it
// lies: decodeValue(buf).primary without the spectrum tail.
func valuePrimary(buf []byte) storage.Pointer {
	if len(buf) < 9 {
		return 0
	}
	return storage.Pointer(binary.BigEndian.Uint64(buf[1:9]))
}

func decodeValue(buf []byte) entryValue {
	var v entryValue
	if len(buf) < 9 {
		return v
	}
	flags := buf[0]
	v.hasCopy = flags&1 != 0
	k := int(flags >> 4)
	v.primary = binary.BigEndian.Uint64(buf[1:9])
	pos := 9
	if v.hasCopy {
		v.clustered = binary.BigEndian.Uint64(buf[pos : pos+8])
		pos += 8
	}
	for i := 0; i < k && pos+8 <= len(buf); i++ {
		v.spectrum = append(v.spectrum, decodeFloat(binary.BigEndian.Uint64(buf[pos:pos+8])))
		pos += 8
	}
	return v
}

package core

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"github.com/fix-index/fix/internal/storage"
)

func TestFloatEncodingOrder(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		ea, eb := encodeFloat(a), encodeFloat(b)
		switch {
		case a < b:
			return ea < eb
		case a > b:
			return ea > eb
		default:
			return ea == eb
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	// Including the infinities used by the oversize fallback.
	vals := []float64{math.Inf(-1), -1e300, -1, -1e-300, 0, 1e-300, 1, 1e300, math.Inf(1)}
	for i := 1; i < len(vals); i++ {
		if encodeFloat(vals[i-1]) >= encodeFloat(vals[i]) {
			t.Errorf("order violated between %v and %v", vals[i-1], vals[i])
		}
	}
}

func TestFloatEncodingRoundTrip(t *testing.T) {
	f := func(a float64) bool {
		if math.IsNaN(a) {
			return true
		}
		return decodeFloat(encodeFloat(a)) == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestKeyRoundTrip(t *testing.T) {
	f := func(label uint32, max, min float64, seq uint64) bool {
		if math.IsNaN(max) || math.IsNaN(min) {
			return true
		}
		k := entryKey{label: label, max: max, min: min, seq: seq}
		return decodeKey(k.encode()) == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestKeySortOrder(t *testing.T) {
	// Encoded keys must sort by (label, max, min, seq).
	rng := rand.New(rand.NewSource(9))
	keys := make([]entryKey, 300)
	for i := range keys {
		keys[i] = entryKey{
			label: uint32(rng.Intn(4)),
			max:   float64(rng.Intn(8)) - 2.5,
			min:   float64(rng.Intn(8)) - 4.5,
			seq:   uint64(rng.Intn(5)),
		}
	}
	enc := make([][]byte, len(keys))
	for i, k := range keys {
		enc[i] = k.encode()
	}
	sort.Slice(enc, func(i, j int) bool { return bytes.Compare(enc[i], enc[j]) < 0 })
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.label != b.label {
			return a.label < b.label
		}
		if a.max != b.max {
			return a.max < b.max
		}
		if a.min != b.min {
			return a.min < b.min
		}
		return a.seq < b.seq
	})
	for i := range keys {
		if decodeKey(enc[i]) != keys[i] {
			t.Fatalf("position %d: byte order %v != semantic order %v", i, decodeKey(enc[i]), keys[i])
		}
	}
}

func TestScanBoundsContainment(t *testing.T) {
	// Every entry with the same label and max >= queryMax must fall in
	// [from, to); entries below or in other labels must not.
	from, to := scanBounds(7, 2.5)
	in := entryKey{label: 7, max: 2.5, min: -2.5, seq: 0}.encode()
	inHigher := entryKey{label: 7, max: 100, min: -100, seq: 9}.encode()
	inInf := entryKey{label: 7, max: math.Inf(1), min: math.Inf(-1), seq: 1}.encode()
	below := entryKey{label: 7, max: 2.4, min: -2.4, seq: 0}.encode()
	otherLabel := entryKey{label: 8, max: 50, min: -50, seq: 0}.encode()
	for _, c := range []struct {
		key  []byte
		want bool
		name string
	}{
		{in, true, "equal max"},
		{inHigher, true, "higher max"},
		{inInf, true, "oversize"},
		{below, false, "below"},
		{otherLabel, false, "other label"},
	} {
		got := bytes.Compare(c.key, from) >= 0 && bytes.Compare(c.key, to) < 0
		if got != c.want {
			t.Errorf("%s: in-range = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestEntryValueRoundTrip(t *testing.T) {
	cases := []struct {
		v    entryValue
		size int
	}{
		{entryValue{primary: 42}, 2},
		{entryValue{primary: storage.MakePointer(3000, 70000)}, 2 + 3},
		{entryValue{primary: storage.MakePointer(math.MaxUint32, math.MaxUint32)}, 5 + 5},
		{entryValue{primary: 1, spectrum: []float64{3.5, 2.25, 0}}, 2 + 3*8},
		{entryValue{primary: 7, spectrum: []float64{10, 9, 8, 7, 6, 5, 4, 3}}, 2 + 8*8},
	}
	for i, c := range cases {
		b := c.v.encode()
		if len(b) != c.size {
			t.Errorf("case %d: %d bytes, want %d", i, len(b), c.size)
		}
		got, ok := decodeValue(b)
		if !ok || got.primary != c.v.primary || !slices.Equal(got.spectrum, c.v.spectrum) {
			t.Errorf("case %d: %+v -> %x -> %+v (ok %t)", i, c.v, b, got, ok)
		}
	}
	// A value spelled otherwise does not decode, rather than decode to
	// pointer 0 — or to any pointer that is not its entry's.
	for _, c := range []struct {
		name string
		buf  []byte
	}{
		{"empty", nil},
		{"half a pointer", []byte{5}},
		{"a uvarint that does not end", []byte{5, 0x80}},
		{"an over-long uvarint", []byte{0x81, 0x00, 1}},
		{"a half beyond a u32", []byte{0x80, 0x80, 0x80, 0x80, 0x10, 0}},
		{"a torn spectrum component", []byte{1, 2, 0, 0, 0}},
		{"nine spectrum components", append([]byte{1, 2}, make([]byte, 9*8)...)},
		{"metaVersion 2's spelling", []byte{0, 0, 0, 0, 5, 0, 0, 0, 10}},
		{"a clustered index's value, two pointers", []byte{42, 0, 99, 0}},
	} {
		if v, ok := decodeValue(c.buf); ok {
			t.Errorf("%s: %x decodes to %+v", c.name, c.buf, v)
		}
	}
}

// FuzzEntryValue feeds arbitrary bytes to the value decoder: it never
// panics, and whatever decodes re-encodes to the same bytes — each value has
// one spelling, which is what Index.Verify's check of every value rests on.
func FuzzEntryValue(f *testing.F) {
	f.Add([]byte{})
	f.Add(entryValue{primary: storage.MakePointer(12, 345)}.encode())
	f.Add([]byte{7, 0, 8, 0, 0xc0, 0, 0, 0, 0, 0, 0, 0, 0xbf, 0xf0, 0, 0, 0, 0, 0, 0}) // a clustered index's value
	f.Add([]byte{0x81, 0x00, 1})
	f.Add([]byte{0x10, 0, 0, 0, 5, 0, 0, 0, 10, 0xc0, 0, 0, 0, 0, 0, 0, 0}) // metaVersion 2
	f.Fuzz(func(t *testing.T, b []byte) {
		v, ok := decodeValue(b)
		if !ok {
			return
		}
		if got := v.encode(); !bytes.Equal(got, b) {
			t.Fatalf("%x decodes to %+v, which encodes to %x", b, v, got)
		}
	})
}

func TestFeaturesContains(t *testing.T) {
	big := Features{Min: -5, Max: 5}
	small := Features{Min: -3, Max: 3}
	if !big.Contains(small) || small.Contains(big) {
		t.Error("containment wrong")
	}
	if !big.Contains(big) {
		t.Error("self containment wrong")
	}
	inf := oversizeFeatures()
	if !inf.Contains(big) || !inf.Oversize {
		t.Error("oversize should contain everything")
	}
}

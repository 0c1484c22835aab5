package core

import (
	"bytes"
	"math"
	"math/rand"
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

// encode spells the key.
func (k entryKey) encode() []byte {
	buf := make([]byte, keySize)
	putKey(buf, k.label, encodeFloat(k.sigma), k.first)
	return buf
}

func TestKeyRoundTrip(t *testing.T) {
	f := func(label uint32, sigma float64, first uint64) bool {
		if math.IsNaN(sigma) {
			return true
		}
		k := entryKey{label: label, sigma: sigma, first: storage.Pointer(first)}
		b := k.encode()
		return len(b) == keySize && decodeKey(b) == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestKeySortOrder(t *testing.T) {
	// Encoded keys must sort by (label, sigma, first pointer).
	rng := rand.New(rand.NewSource(9))
	keys := make([]entryKey, 300)
	for i := range keys {
		keys[i] = entryKey{
			label: uint32(rng.Intn(4)),
			sigma: float64(rng.Intn(8)) - 2.5,
			first: storage.MakePointer(uint32(rng.Intn(3)), uint32(rng.Intn(3))),
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
		if a.sigma != b.sigma {
			return a.sigma < b.sigma
		}
		return a.first < b.first
	})
	for i := range keys {
		if decodeKey(enc[i]) != keys[i] {
			t.Fatalf("position %d: byte order %v != semantic order %v", i, decodeKey(enc[i]), keys[i])
		}
	}
}

func TestScanBoundsContainment(t *testing.T) {
	// Every entry with the same label and sigma >= the query's must fall
	// in [from, to); entries below or in other labels must not.
	from, to := scanBounds(7, 2.5)
	in := entryKey{label: 7, sigma: 2.5, first: 0}.encode()
	inHigher := entryKey{label: 7, sigma: 100, first: 9}.encode()
	inInf := entryKey{label: 7, sigma: math.Inf(1), first: 1}.encode()
	below := entryKey{label: 7, sigma: 2.4, first: 0}.encode()
	otherLabel := entryKey{label: 8, sigma: 50, first: 0}.encode()
	for _, c := range []struct {
		key  []byte
		want bool
		name string
	}{
		{in, true, "equal sigma"},
		{inHigher, true, "higher sigma"},
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

// indexEntry is one posting of an index, expanded: the key of its run,
// what the chunk holds of it, and the chunk's pair sketch and agreement.
type indexEntry struct {
	label  uint32
	sigma  float64
	ptr    storage.Pointer
	sketch uint32
	alike  int
}

// expand reads the postings of every chunk a scan of the whole tree
// delivers, in key order.
func expand(t *testing.T, scan func(from, to []byte, fn func(k, v []byte) bool) error) []indexEntry {
	t.Helper()
	var out []indexEntry
	err := scan(nil, nil, func(k, v []byte) bool {
		if len(k) != keySize {
			t.Fatalf("key %x is %d bytes", k, len(k))
		}
		key := decodeKey(k)
		r := openPostings(key.first, v)
		for r.next() {
			out = append(out, indexEntry{key.label, key.sigma, r.ptr, r.sketch, r.alike})
		}
		if !r.ok() {
			t.Fatalf("chunk %x: value %x does not decode", k, v)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// posting is a pointer and its pair sketch.
type posting struct {
	ptr storage.Pointer
	sk  uint32
}

// chunkOf spells the chunk of ps, which ascend, as a build spells it when
// the units agree throughout.
func chunkOf(ps ...posting) []byte { return chunkAt(maxAlike, ps...) }

// chunkAt spells the chunk of ps, which ascend, whose units agree to
// depth d.
func chunkAt(d int, ps ...posting) []byte {
	var c chunk
	for _, p := range ps {
		c.add(p.ptr, p.sk)
	}
	c.alike = d
	return c.appendTo(nil)
}

// readChunk decodes the chunk value v whose first pointer is first: its
// postings, the first of which carries the chunk's sketch, and the depth
// to which their units agree.
func readChunk(first storage.Pointer, v []byte) (ps []posting, d int, ok bool) {
	r := openPostings(first, v)
	for sk := r.sketch; r.next(); sk = 0 {
		ps = append(ps, posting{r.ptr, sk})
	}
	return ps, r.alike, r.ok()
}

// atTheCap returns the postings of a chunk whose value is exactly
// maxChunkBytes long: one posting a record at offset 0, two bytes each,
// and a one-byte step inside the last record where a byte is left.
func atTheCap() []posting {
	ps := []posting{{storage.MakePointer(1, 0), 0x8001}}
	for rec := uint32(2); ; rec++ {
		switch n := len(chunkOf(ps...)); {
		case n == maxChunkBytes:
			return ps
		case n == maxChunkBytes-1:
			ps = append(ps, posting{storage.MakePointer(rec-1, 1), 0})
		default:
			ps = append(ps, posting{storage.MakePointer(rec, 0), 0})
		}
	}
}

// oneRecord returns n postings of one record, each a byte after the one before.
func oneRecord(n int) []posting {
	ps := make([]posting, n)
	for i := range ps {
		ps[i] = posting{storage.MakePointer(4, uint32(i)), 0}
	}
	return ps
}

func TestEntryValueRoundTrip(t *testing.T) {
	p := storage.MakePointer
	cases := []struct {
		name string
		ps   []posting
		size int
	}{
		{"one posting", []posting{{p(3, 40), 0}}, 1},
		{"one record, small steps", []posting{{p(3, 40), 1}, {p(3, 41), 4}, {p(3, 71), 1 << (sketchBits - 1)}}, 1 + 1 + 1},
		{"offsets 2^14 apart", []posting{{p(3, 0), 0}, {p(3, 1<<14), 0}, {p(3, 1<<15+1), 0}}, 1 + 3 + 3},
		{"record jumps", []posting{{p(0, 0), 0}, {p(1, 0), 0}, {p(9, 0), 0}, {p(70000, 0), 0}}, 1 + 2 + 2 + 4},
		{"jumps to high offsets", []posting{{p(0, 70000), 0}, {p(1, math.MaxUint32), 0}, {p(math.MaxUint32, 0), 0}}, 1 + 6 + 6},
		{"15 postings, a one-byte head", oneRecord(15), 1 + 14},
		{"16 postings, a two-byte head", oneRecord(16), 2 + 15},
	}
	for i, c := range cases {
		d := i % (maxAlike + 1)
		b := chunkAt(d, c.ps...)
		if len(b) != sketchBytes+c.size {
			t.Errorf("%s: %d bytes, want %d", c.name, len(b), sketchBytes+c.size)
		}
		got, gotD, ok := readChunk(c.ps[0].ptr, b)
		if !ok || len(got) != len(c.ps) || gotD != d {
			t.Fatalf("%s: %x reads back as %+v, agreeing to depth %d (ok %t), want depth %d", c.name, b, got, gotD, ok, d)
		}
		var sk uint32
		for i := range got {
			sk |= c.ps[i].sk
			if got[i].ptr != c.ps[i].ptr {
				t.Errorf("%s: posting %d reads back as %+v, want %+v", c.name, i, got[i], c.ps[i])
			}
		}
		if got[0].sk != sk {
			t.Errorf("%s: the sketch reads back as %#x, want %#x", c.name, got[0].sk, sk)
		}
	}
	if b := chunkOf(atTheCap()...); len(b) != maxChunkBytes {
		t.Fatalf("the chunk at the cap takes %d bytes, want %d", len(b), maxChunkBytes)
	} else if _, _, ok := readChunk(storage.MakePointer(1, 0), b); !ok {
		t.Errorf("the chunk at the cap does not read back")
	}
	var c chunk
	for _, q := range atTheCap() {
		c.add(q.ptr, q.sk)
	}
	if c.fits(storage.MakePointer(1<<20, 0), 1, maxChunkBytes) || c.size() != maxChunkBytes || c.sketch != 0x8001 {
		t.Errorf("a posting went onto the chunk at the cap, or the refusal changed it (%d bytes, sketch %#x)", c.size(), c.sketch)
	}
	// A value spelled otherwise does not read, rather than read to some
	// pointer that is not its chunk's.
	sk := make([]byte, sketchBytes)
	value := func(head byte, rest ...byte) []byte { return append(append([]byte{head}, sk...), rest...) }
	for _, c := range []struct {
		name string
		buf  []byte
	}{
		{"empty", nil},
		{"no postings", value(0<<3 | 7)},
		{"no sketch", []byte{1 << 3}},
		{"a torn sketch", []byte{1 << 3, 0, 0}},
		{"fewer postings than the head says", value(3<<3, 2)},
		{"bytes left over", value(1<<3, 0)},
		{"an over-long head", append([]byte{0x88, 0x00}, sk...)},
		{"an over-long step", value(2<<3, 0x82, 0x00)},
		{"a step of zero in one record", value(2<<3, 0)},
		{"a jump of zero records", value(2<<3, 1, 5)},
		{"an offset beyond a u32", value(2<<3, 1<<1|1, 0x80, 0x80, 0x80, 0x80, 0x10)},
		{"a step past the last offset", value(2<<3, 0xfe, 0xff, 0xff, 0xff, 0x1f)},
		{"metaVersion 7's first posting with a tail", value(1<<5|7<<2|1, append([]byte{1}, make([]byte, 8)...)...)},
		{"metaVersion 7's flagged postings", value(2<<5|7<<2, 1<<2)},
		{"metaVersion 6's spelling", value(1<<2 | 2)},
		{"metaVersion 5's spelling", []byte{2 << 1, 1 << 2}},
		{"metaVersion 4's spelling", []byte{5, 0}},
		{"over the cap", append([]byte{0xff, 0x01}, make([]byte, maxChunkBytes)...)},
	} {
		if ps, _, ok := readChunk(storage.MakePointer(0, 5), c.buf); ok {
			t.Errorf("%s: %x reads as %+v", c.name, c.buf, ps)
		}
	}
}

// FuzzPostingChunk feeds arbitrary bytes to the chunk decoder under an
// arbitrary first pointer: it never panics, and whatever reads whole
// re-encodes to the same bytes — each chunk has one spelling, which is
// what Index.Verify's check of every chunk rests on. Seeds cover
// agreement depths 0, 3 and 7, chunks of 1, 15 and 16 postings (the
// last head of one byte and the first of two), steps in one record and to
// a later one, and values in fix.meta version 7's spellings, which must
// not read: a head whose a bit ("no posting has a tail") is clear, or
// whose t bit ("the first has one") is set.
func FuzzPostingChunk(f *testing.F) {
	p := storage.MakePointer
	for _, d := range []int{0, 3, maxAlike} {
		f.Add(uint64(p(4, 0)), chunkAt(d, oneRecord(1)...))
		f.Add(uint64(p(4, 0)), chunkAt(d, oneRecord(15)...))
		f.Add(uint64(p(4, 0)), chunkAt(d, oneRecord(16)...))
		f.Add(uint64(p(7, 9)), chunkAt(d, posting{p(7, 9), 1}, posting{p(7, 12), 2}, posting{p(8, 0), 0}))
	}
	f.Add(uint64(p(12, 345)), chunkOf(posting{p(12, 345), 0}))
	f.Add(uint64(p(1, 0)), chunkOf(atTheCap()...))
	f.Add(uint64(p(3, 40)), chunkOf(posting{p(3, 40), 0}, posting{p(3, 41), 0}, posting{p(3, 1<<14), 0}, posting{p(3, 1<<20+7), 0}))
	f.Add(uint64(p(3, 40)), chunkOf(posting{p(3, 40), 1 << 7}, posting{p(3, 41), 1}, posting{p(4, 1<<14), 1 << (sketchBits - 1)}))
	f.Add(uint64(p(0, 0)), chunkOf(posting{p(0, 0), 0}, posting{p(1, 0), 0}, posting{p(2, 1<<15), 0}, posting{p(9000, 3), 0}))
	f.Add(uint64(p(5, 5)), chunkOf(posting{p(5, 5), fullSketch}, posting{p(5, 6), 0}, posting{p(6, 0), 2}))
	f.Add(uint64(p(0, 5)), []byte{0x81, 0x00, 1})
	f.Add(uint64(p(0, 5)), []byte{5, 0})                                                   // metaVersion 4
	f.Add(uint64(p(0, 5)), []byte{2 << 1, 1 << 2})                                         // metaVersion 5
	f.Add(uint64(p(0, 5)), []byte{2<<2 | 2, 0, 0, 0, 1})                                   // metaVersion 6
	f.Add(uint64(p(7, 9)), []byte{2<<5 | 3<<2 | 2, 0, 0, 1, 3 << 1})                       // metaVersion 7, no tails
	f.Add(uint64(p(7, 9)), []byte{1<<5 | 3<<2 | 1, 0, 0, 1, 1, 0x80, 0, 0, 0, 0, 0, 0, 0}) // metaVersion 7, a first tail
	f.Add(uint64(p(7, 9)), []byte{2<<5 | 3<<2, 0, 0, 1, 3 << 2})                           // metaVersion 7, flagged postings
	f.Fuzz(func(t *testing.T, first uint64, b []byte) {
		ps, d, ok := readChunk(storage.Pointer(first), b)
		if !ok {
			return
		}
		if got := chunkAt(d, ps...); !bytes.Equal(got, b) {
			t.Fatalf("%x under %v reads as %+v agreeing to depth %d, which encodes to %x", b, storage.Pointer(first), ps, d, got)
		}
	})
}

func TestFeaturesContains(t *testing.T) {
	big := Features{Sigma: 5}
	small := Features{Sigma: 3}
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

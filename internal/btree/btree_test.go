package btree

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/fix-index/fix/internal/storage"
)

// payloadOf returns page id's payload where the table holds it.
func payloadOf(tr *Tree, id uint32) []byte { return tr.pages[id][pageHeaderSize:] }

func newTree(t *testing.T, pageSize int) *Tree {
	t.Helper()
	tr, err := Create(storage.NewMemFile(), pageSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// leafOf returns an owned, decoded copy of the leaf whose key range holds
// key, for tests that rewrite a page through storeNode.
func leafOf(t *testing.T, tr *Tree, key []byte) *node {
	t.Helper()
	c, err := findLeaf(tr, tr.root, tr.height, key)
	if err != nil {
		t.Fatal(err)
	}
	n, err := decodeNode(c.id, c.buf)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestBasicPutGet(t *testing.T) {
	tr := newTree(t, 512)
	if err := tr.Put([]byte("k1"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Put([]byte("k2"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := tr.Get([]byte("k1"))
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("Get(k1) = %q, %v, %v", v, ok, err)
	}
	if _, ok, _ := tr.Get([]byte("missing")); ok {
		t.Error("Get(missing) found something")
	}
	if tr.Len() != 2 {
		t.Errorf("Len = %d", tr.Len())
	}
	// Overwrite does not change Len.
	if err := tr.Put([]byte("k1"), []byte("V1!")); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 {
		t.Errorf("Len after overwrite = %d", tr.Len())
	}
	v, _, _ = tr.Get([]byte("k1"))
	if string(v) != "V1!" {
		t.Errorf("overwritten value = %q", v)
	}
}

func TestOverwriteGrowthSplits(t *testing.T) {
	// Regression: overwriting with a larger value must split rather than
	// overflow the page (this bit the clustered-index rewrite).
	tr := newTree(t, 512)
	for i := 0; i < 40; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("key%03d", i)), []byte("short")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		v := bytes.Repeat([]byte{byte(i)}, 60)
		if err := tr.Put([]byte(fmt.Sprintf("key%03d", i)), v); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		v, ok, err := tr.Get([]byte(fmt.Sprintf("key%03d", i)))
		if err != nil || !ok || len(v) != 60 || v[0] != byte(i) {
			t.Fatalf("key%03d: %v %v len=%d", i, ok, err, len(v))
		}
	}
}

func insertionOrders(n int) map[string][]int {
	asc := make([]int, n)
	desc := make([]int, n)
	random := make([]int, n)
	for i := range asc {
		asc[i] = i
		desc[i] = n - 1 - i
		random[i] = i
	}
	rng := rand.New(rand.NewSource(11))
	rng.Shuffle(n, func(i, j int) { random[i], random[j] = random[j], random[i] })
	return map[string][]int{"ascending": asc, "descending": desc, "random": random}
}

func TestManyInsertsAllOrders(t *testing.T) {
	const n = 3000
	for name, order := range insertionOrders(n) {
		t.Run(name, func(t *testing.T) {
			tr := newTree(t, 512)
			for _, i := range order {
				key := []byte(fmt.Sprintf("key-%06d", i))
				val := []byte(fmt.Sprintf("val-%d", i))
				if err := tr.Put(key, val); err != nil {
					t.Fatal(err)
				}
			}
			if tr.Len() != n {
				t.Fatalf("Len = %d, want %d", tr.Len(), n)
			}
			if tr.Height() < 2 {
				t.Errorf("height = %d; expected splits", tr.Height())
			}
			for i := 0; i < n; i++ {
				key := []byte(fmt.Sprintf("key-%06d", i))
				v, ok, err := tr.Get(key)
				if err != nil || !ok || string(v) != fmt.Sprintf("val-%d", i) {
					t.Fatalf("Get(%s) = %q, %v, %v", key, v, ok, err)
				}
			}
			// Full scan must be sorted and complete.
			var prev []byte
			count := 0
			err := tr.Scan(nil, nil, func(k, v []byte) bool {
				if prev != nil && bytes.Compare(prev, k) >= 0 {
					t.Fatalf("scan out of order: %q then %q", prev, k)
				}
				prev = append(prev[:0], k...)
				count++
				return true
			})
			if err != nil || count != n {
				t.Fatalf("scan count = %d, err = %v", count, err)
			}
		})
	}
}

func TestScanRanges(t *testing.T) {
	tr := newTree(t, 512)
	for i := 0; i < 100; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("%03d", i)), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	collect := func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	}
	if err := tr.Scan([]byte("010"), []byte("015"), collect); err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 || got[0] != "010" || got[4] != "014" {
		t.Errorf("range scan = %v", got)
	}
	// From a key that does not exist.
	got = nil
	if err := tr.Scan([]byte("0105"), []byte("013"), collect); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "011" {
		t.Errorf("inexact range scan = %v", got)
	}
	// Early stop.
	got = nil
	if err := tr.Scan(nil, nil, func(k, v []byte) bool {
		got = append(got, string(k))
		return len(got) < 3
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Errorf("early stop = %v", got)
	}
}

func TestDelete(t *testing.T) {
	tr := newTree(t, 512)
	for i := 0; i < 200; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("%04d", i)), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i += 2 {
		ok, err := tr.Delete([]byte(fmt.Sprintf("%04d", i)))
		if err != nil || !ok {
			t.Fatalf("Delete(%04d) = %v, %v", i, ok, err)
		}
	}
	if ok, _ := tr.Delete([]byte("0000")); ok {
		t.Error("double delete reported success")
	}
	if tr.Len() != 100 {
		t.Errorf("Len after deletes = %d", tr.Len())
	}
	for i := 0; i < 200; i++ {
		_, ok, _ := tr.Get([]byte(fmt.Sprintf("%04d", i)))
		if want := i%2 == 1; ok != want {
			t.Errorf("Get(%04d) present=%v, want %v", i, ok, want)
		}
	}
}

func TestPersistence(t *testing.T) {
	f := storage.NewMemFile()
	tr, err := Create(f, 512, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("%05d", i)), []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(f)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 500 || re.Height() != tr.Height() {
		t.Fatalf("reopened len=%d height=%d, want %d/%d", re.Len(), re.Height(), tr.Len(), tr.Height())
	}
	for i := 0; i < 500; i++ {
		v, ok, err := re.Get([]byte(fmt.Sprintf("%05d", i)))
		if err != nil || !ok || string(v) != fmt.Sprint(i) {
			t.Fatalf("reopened Get(%05d) = %q, %v, %v", i, v, ok, err)
		}
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	f := storage.NewMemFile()
	if _, err := f.WriteAt(make([]byte, 64), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(f); err == nil {
		t.Error("Open on garbage succeeded")
	}
}

func TestOversizedEntryRejected(t *testing.T) {
	tr := newTree(t, 512)
	if err := tr.Put(make([]byte, 100), make([]byte, 100)); err == nil {
		t.Error("entry larger than a quarter page accepted")
	}
}

// TestModelRandomOps is the model-based test: random put/delete/get
// against a Go map, then a full scan against the sorted model and Verify,
// for keys of every shape in keyShapes, maximal entries among them.
func TestModelRandomOps(t *testing.T) {
	for _, shape := range keyShapes {
		tr := newTree(t, shape.pageSize)
		model := make(map[string]string)
		rng := rand.New(rand.NewSource(99))
		key := func() string { return string(shape.key(rng.Intn(2000))) }
		for op := 0; op < 20000; op++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4, 5: // put
				k, v := key(), fmt.Sprintf("v%d", op)
				if op%97 == 0 {
					v += strings.Repeat("+", tr.maxEntry()-8-len(k)-len(v))
				}
				if err := tr.Put([]byte(k), []byte(v)); err != nil {
					t.Fatal(err)
				}
				model[k] = v
			case 6, 7: // delete
				k := key()
				ok, err := tr.Delete([]byte(k))
				if err != nil {
					t.Fatal(err)
				}
				_, inModel := model[k]
				if ok != inModel {
					t.Fatalf("%s keys: Delete(%q) = %v, model has %v", shape.name, k, ok, inModel)
				}
				delete(model, k)
			default: // get
				k := key()
				v, ok, err := tr.Get([]byte(k))
				if err != nil {
					t.Fatal(err)
				}
				want, inModel := model[k]
				if ok != inModel || (ok && string(v) != want) {
					t.Fatalf("%s keys: Get(%q) = %q, %v; model %q, %v", shape.name, k, v, ok, want, inModel)
				}
			}
		}
		if tr.Len() != len(model) {
			t.Fatalf("%s keys: Len = %d, model %d", shape.name, tr.Len(), len(model))
		}
		// Final scan must equal the sorted model.
		var wantKeys []string
		for k := range model {
			wantKeys = append(wantKeys, k)
		}
		sort.Strings(wantKeys)
		i := 0
		err := tr.Scan(nil, nil, func(k, v []byte) bool {
			if i >= len(wantKeys) || string(k) != wantKeys[i] || string(v) != model[wantKeys[i]] {
				t.Fatalf("%s keys: scan position %d: got %q=%q", shape.name, i, k, v)
			}
			i++
			return true
		})
		if err != nil || i != len(wantKeys) {
			t.Fatalf("%s keys: scan covered %d of %d (err=%v)", shape.name, i, len(wantKeys), err)
		}
		// Splits and the leaves deletes emptied leave a tree Verify accepts.
		if err := tr.Verify(); err != nil {
			t.Errorf("%s keys: Verify: %v", shape.name, err)
		}
	}
}

// TestStats pins what the counters mean now that the image is resident:
// Flush writes each dirty page once, Open reads each page once, and no
// access after that reads the file.
func TestStats(t *testing.T) {
	f := storage.NewMemFile()
	tr, err := Create(f, 512, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("%05d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if s := tr.Stats(); s.PageReads != 0 || s.PageWrites != 0 {
		t.Errorf("before the first Flush: %+v, want no file traffic", s)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	pages := tr.Size() / 512
	if s := tr.Stats(); pages < 3 || s.PageWrites != pages {
		t.Errorf("Flush of a fresh tree of %d pages: %+v", pages, s)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if s := tr.Stats(); s.PageWrites != pages+1 {
		t.Errorf("a Flush with nothing changed wrote %d pages, want the meta page only", s.PageWrites-pages)
	}
	re, err := Open(f)
	if err != nil {
		t.Fatal(err)
	}
	if s := re.Stats(); s.PageReads != pages {
		t.Errorf("Open read %d of %d pages", s.PageReads, pages)
	}
	re.ResetStats()
	if _, ok, err := re.Get([]byte("00500")); err != nil || !ok {
		t.Fatal(ok, err)
	}
	if s := re.Stats(); s.PageReads != 0 || s.CacheHits == 0 {
		t.Errorf("a Get after Open: %+v", s)
	}
}

// TestVerifyTerminatesOnLoopingLeafChain hand-builds what a torn
// write-back can leave behind — a two-leaf tree whose last leaf links
// back to the first — and requires Verify to report corruption instead
// of following the chain forever, both when the leaves hold entries (the
// entry count gives it away) and when they are empty (only the number of
// leaves hopped over does).
func TestVerifyTerminatesOnLoopingLeafChain(t *testing.T) {
	for _, empty := range []bool{false, true} {
		t.Run(fmt.Sprintf("empty=%v", empty), func(t *testing.T) {
			tr := newTree(t, 512)
			var keys [][]byte
			for i := 0; tr.Height() < 2; i++ {
				keys = append(keys, []byte(fmt.Sprintf("key-%04d", i)))
				if err := tr.Put(keys[i], bytes.Repeat([]byte{'v'}, 40)); err != nil {
					t.Fatal(err)
				}
			}
			if empty {
				for _, k := range keys {
					if _, err := tr.Delete(k); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := tr.Verify(); err != nil {
				t.Fatalf("Verify before the damage: %v", err)
			}
			first := leafOf(t, tr, nil)
			last, err := tr.loadNode(first.next)
			if err != nil {
				t.Fatal(err)
			}
			if first.next == 0 || last.next != 0 {
				t.Fatalf("fixture is not a two-leaf chain: %d -> %d -> %d", first.id, first.next, last.next)
			}
			last.next = first.id
			tr.storeNode(last)

			done := make(chan error, 1)
			go func() { done <- tr.Verify() }()
			select {
			case err := <-done:
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("Verify on a looping leaf chain = %v, want ErrCorrupt", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Verify still following a looping leaf chain after 5s")
			}
		})
	}
}

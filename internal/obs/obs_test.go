package obs

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestPhaseString(t *testing.T) {
	want := []string{"parse", "plan", "probe", "fetch", "refine"}
	for i, w := range want {
		if got := Phase(i).String(); got != w {
			t.Errorf("Phase(%d) = %q, want %q", i, got, w)
		}
	}
	if got := Phase(99).String(); got != "unknown" {
		t.Errorf("Phase(99) = %q, want unknown", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{time.Microsecond, 0},
		{2 * time.Microsecond, 1},
		{3 * time.Microsecond, 2},
		{4 * time.Microsecond, 2},
		{5 * time.Microsecond, 3},
		{time.Millisecond, 10},             // 1024µs <= 2^10
		{time.Second, 20},                  // 1e6µs <= 2^20
		{10 * time.Minute, NumBuckets - 1}, // overflow bucket
	}
	for _, c := range cases {
		if got := bucketFor(c.d); got != c.want {
			t.Errorf("bucketFor(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	// Every bucket's contents must respect its bound.
	for i := 0; i < NumBuckets-1; i++ {
		if bucketFor(BucketBound(i)) != i {
			t.Errorf("BucketBound(%d) = %v lands in bucket %d", i, BucketBound(i), bucketFor(BucketBound(i)))
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 90 fast observations, 10 slow ones: p50 must sit in the fast
	// bucket, p99 in the slow one.
	for i := 0; i < 90; i++ {
		h.Observe(3 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(900 * time.Microsecond)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	if s.P50 != 4*time.Microsecond {
		t.Errorf("p50 = %v, want 4µs (bucket bound over 3µs)", s.P50)
	}
	if s.P99 != 1024*time.Microsecond {
		t.Errorf("p99 = %v, want 1.024ms (bucket bound over 900µs)", s.P99)
	}
	if len(s.Buckets) != 2 {
		t.Errorf("non-empty buckets = %d, want 2 (%+v)", len(s.Buckets), s.Buckets)
	}
	if s.Mean <= 0 {
		t.Errorf("mean = %v, want > 0", s.Mean)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Count != 0 || s.P50 != 0 || len(s.Buckets) != 0 {
		t.Errorf("empty histogram snapshot = %+v", s)
	}
}

// TestRegistryConcurrent hammers one registry from many goroutines and
// checks the totals; run with -race to verify lock-freedom is also
// data-race-freedom.
func TestRegistryConcurrent(t *testing.T) {
	var r Registry
	const goroutines, per = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.ObserveQuery(time.Millisecond, 10, 5, 4, 6, 2, 3, i%10 == 0, 7)
				if i%50 == 0 {
					r.ObserveQueryError()
					r.ObserveBuild(4, 4, time.Second)
					_ = r.Snapshot() // snapshots race with writers by design
				}
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	const n = goroutines * per
	if s.Queries != n || s.Scanned != 10*n || s.Candidates != 5*n || s.SketchPruned != 4*n || s.SharedMatches != 6*n || s.Matched != 2*n || s.Results != 3*n {
		t.Errorf("totals diverge: %+v", s)
	}
	if s.Fallbacks != n/10 {
		t.Errorf("fallbacks = %d, want %d", s.Fallbacks, n/10)
	}
	if s.QueryErrors != goroutines*10 || s.Builds != goroutines*10 {
		t.Errorf("errors/builds = %d/%d, want %d each", s.QueryErrors, s.Builds, goroutines*10)
	}
	if s.Latency.Count != n {
		t.Errorf("latency count = %d, want %d", s.Latency.Count, n)
	}
	if s.NodesVisited != 7*n {
		t.Errorf("nodes visited = %d, want %d", s.NodesVisited, 7*n)
	}
}

func TestSnapshotMarshalsToJSON(t *testing.T) {
	var r Registry
	r.ObserveQuery(5*time.Millisecond, 100, 10, 6, 3, 5, 5, false, 42)
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"queries":1`, `"candidates":10`, `"sketch_pruned":6`, `"shared_matches":3`, `"query_latency"`} {
		if !jsonContains(b, key) {
			t.Errorf("snapshot JSON missing %s: %s", key, b)
		}
	}
}

func jsonContains(b []byte, sub string) bool {
	return len(b) >= len(sub) && string(b) != "" && containsStr(string(b), sub)
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestStorageDeltaAdd(t *testing.T) {
	a := StorageDelta{SeqReads: 1, RandomReads: 2, CachedReads: 3, BytesRead: 4, SubtreeReads: 5, SubtreeBytes: 6}
	b := StorageDelta{SeqReads: 10, RandomReads: 20, CachedReads: 30, BytesRead: 40, SubtreeReads: 50, SubtreeBytes: 60}
	got := a.Add(b)
	want := StorageDelta{SeqReads: 11, RandomReads: 22, CachedReads: 33, BytesRead: 44, SubtreeReads: 55, SubtreeBytes: 66}
	if got != want {
		t.Errorf("Add = %+v, want %+v", got, want)
	}
}

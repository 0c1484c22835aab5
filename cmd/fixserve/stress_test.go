package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fix-index/fix/fix"
)

// TestStressGovernedServer hammers the server from many goroutines with
// a deliberately tiny admission gate and intermittent injected faults,
// asserting the governance invariants: every request gets a classified
// response (no hangs, no crashes), shed requests see 429 + Retry-After,
// admitted queries that succeed return the exact count whether they ran
// on the index or the scan fallback, and the gate drains back to zero.
//
// It is heavyweight and meaningful mostly under -race, so it is gated:
//
//	FIX_STRESS=1 go test -race -run Stress ./cmd/fixserve/
//
// (the `make stress` target).
func TestStressGovernedServer(t *testing.T) {
	if os.Getenv("FIX_STRESS") == "" {
		t.Skip("set FIX_STRESS=1 to run the stress test")
	}
	db := newTestDB(t)
	cfg := serverConfig{
		maxInFlight:    2,
		queueWait:      2 * time.Millisecond,
		requestTimeout: time.Second,
		breakerFaults:  3,
		breakerCool:    5 * time.Millisecond,
	}
	s := newServer(db, cfg)

	// Fault injection: the slow-query hook panics on a fraction of
	// queries, exercising containment, degradation and the breaker under
	// full concurrency.
	var hookCalls atomic.Int64
	db.SetOptions(fix.Options{
		SlowQueryThreshold: time.Nanosecond,
		OnSlowQuery: func(fix.QueryTrace) {
			if hookCalls.Add(1)%7 == 0 {
				panic("injected stress fault")
			}
		},
	})

	h := s.handler()
	const workers = 32
	const perWorker = 50
	var ok200, shed429, fault500, other atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				path := "/query?q=" + url.QueryEscape("//article[author]")
				if i%3 == 0 {
					path += "&trace=1"
				}
				req := httptest.NewRequest(http.MethodGet, path, nil)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				switch rec.Code {
				case http.StatusOK:
					ok200.Add(1)
					var resp queryResponse
					if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
						t.Errorf("decoding 200 body: %v", err)
						return
					}
					if resp.Count != 2 {
						t.Errorf("count = %d, want 2 (index and fallback must agree)", resp.Count)
						return
					}
				case http.StatusTooManyRequests:
					shed429.Add(1)
					if rec.Header().Get("Retry-After") == "" {
						t.Error("429 without Retry-After")
						return
					}
				case http.StatusInternalServerError:
					fault500.Add(1) // injected panics, contained
				default:
					other.Add(1)
					t.Errorf("unexpected status %d: %s", rec.Code, rec.Body)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	if inFlight, _ := s.gate.Load(); inFlight != 0 {
		t.Fatalf("gate did not drain: %d weight still held", inFlight)
	}
	if ok200.Load() == 0 {
		t.Fatal("no query ever succeeded under load")
	}
	if fault500.Load() == 0 {
		t.Fatal("fault injection never fired (hook miswired?)")
	}
	t.Logf("stress: %d ok, %d shed (429), %d contained faults (500)",
		ok200.Load(), shed429.Load(), fault500.Load())
}

// TestStressIngestAndQuery hammers POST /ingest from many goroutines —
// on a real on-disk DB with a deliberately shallow ingest queue and
// fail-fast enqueue — while readers run /query and /healthz, asserting
// the write-path invariants: every request gets a classified response,
// queue-full and gate sheds see 429 + Retry-After, every 200 means the
// documents are durable and countable, and at the end the exact number
// of acknowledged adds (minus acknowledged deletes) is visible.
//
//	FIX_STRESS=1 go test -race -run Stress ./cmd/fixserve/
func TestStressIngestAndQuery(t *testing.T) {
	if os.Getenv("FIX_STRESS") == "" {
		t.Skip("set FIX_STRESS=1 to run the stress test")
	}
	dir := t.TempDir()
	db, err := fix.Create(dir)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer func() { _ = db.Close() }()
	if _, err := db.AddDocumentString(`<seed><title>s</title></seed>`); err != nil {
		t.Fatalf("AddDocumentString: %v", err)
	}
	if err := db.Save(); err != nil {
		t.Fatalf("Save: %v", err)
	}
	cfg := serverConfig{
		maxInFlight:    8,
		queueWait:      2 * time.Millisecond,
		requestTimeout: 5 * time.Second,
		breakerFaults:  5,
		breakerCool:    time.Hour,
		ingest: fix.IngestConfig{
			QueueDepth:  8,
			MaxBatch:    4,
			EnqueueWait: -1, // fail fast: exercises the 429 path for real
		},
	}
	s := newServer(db, cfg)
	h := s.handler()

	const writers = 16
	const perWriter = 40
	var acked, shed429, readOK atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				body := `{"op":"add","xml":"<stress><w>` + url.QueryEscape(string(rune('a'+w))) + `</w></stress>"}`
				req := httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader(body))
				req.Header.Set("Content-Type", "application/x-ndjson")
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				switch rec.Code {
				case http.StatusOK:
					var resp ingestResponse
					if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
						t.Errorf("decoding 200 body: %v", err)
						return
					}
					if resp.Added != 1 {
						t.Errorf("added = %d, want 1", resp.Added)
						return
					}
					acked.Add(1)
				case http.StatusTooManyRequests:
					shed429.Add(1)
					if rec.Header().Get("Retry-After") == "" {
						t.Error("429 without Retry-After")
						return
					}
				default:
					t.Errorf("unexpected ingest status %d: %s", rec.Code, rec.Body)
					return
				}
			}
		}(w)
	}
	// Readers: queries and health checks race the writers.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				req := httptest.NewRequest(http.MethodGet, "/query?q="+url.QueryEscape("//seed"), nil)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code == http.StatusOK {
					readOK.Add(1)
				}
				hreq := httptest.NewRequest(http.MethodGet, "/healthz", nil)
				hrec := httptest.NewRecorder()
				h.ServeHTTP(hrec, hreq)
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	if err := s.stopWrites(); err != nil {
		t.Fatalf("ingester close: %v", err)
	}
	if inFlight, _ := s.gate.Load(); inFlight != 0 {
		t.Fatalf("gate did not drain: %d weight still held", inFlight)
	}
	if acked.Load() == 0 {
		t.Fatal("no ingest ever succeeded under load")
	}
	// Exactly the acknowledged adds are visible — not one more, not one
	// fewer — and a final Save absorbs the WAL cleanly.
	req := httptest.NewRequest(http.MethodGet, "/query?q="+url.QueryEscape("//stress"), nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("final count query: status = %d (body %s)", rec.Code, rec.Body)
	}
	var resp queryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding final count: %v", err)
	}
	if int64(resp.Count) != acked.Load() {
		t.Fatalf("//stress count = %d, want %d acknowledged adds", resp.Count, acked.Load())
	}
	if err := db.Save(); err != nil {
		t.Fatalf("final save: %v", err)
	}
	if lag := db.IngestLag(); lag != 0 {
		t.Fatalf("ingest lag after Save = %d, want 0", lag)
	}
	t.Logf("ingest stress: %d acked, %d shed (429), %d reads ok",
		acked.Load(), shed429.Load(), readOK.Load())
}

package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"github.com/fix-index/fix/fix"
)

// newTestDB builds a small indexed in-memory database.
func newTestDB(t *testing.T) *fix.DB {
	t.Helper()
	db, err := fix.CreateMem()
	if err != nil {
		t.Fatalf("CreateMem: %v", err)
	}
	docs := []string{
		`<article><author><email>a</email></author><title>x</title></article>`,
		`<article><author>anon</author></article>`,
		`<book><title>y</title></book>`,
	}
	for _, d := range docs {
		if _, err := db.AddDocumentString(d); err != nil {
			t.Fatalf("AddDocumentString: %v", err)
		}
	}
	if err := db.BuildIndex(fix.IndexOptions{}); err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	return db
}

func defaultTestConfig() serverConfig {
	return serverConfig{
		maxInFlight:    4,
		queueWait:      50 * time.Millisecond,
		requestTimeout: 5 * time.Second,
		breakerFaults:  5,
		breakerCool:    time.Hour,
	}
}

// get runs one request through the server's handler.
func get(t *testing.T, s *server, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.handler().ServeHTTP(rec, req)
	return rec
}

func TestQueryEndpoint(t *testing.T) {
	s := newServer(newTestDB(t), defaultTestConfig())

	rec := get(t, s, "/query?q="+url.QueryEscape("//article[author]"))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	var resp queryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if resp.Count != 2 {
		t.Fatalf("count = %d, want 2", resp.Count)
	}
	if resp.Trace != nil {
		t.Fatal("trace present without trace=1")
	}

	rec = get(t, s, "/query?q="+url.QueryEscape("//article[author]")+"&trace=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("traced status = %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding traced response: %v", err)
	}
	if resp.Trace == nil {
		t.Fatal("trace missing with trace=1")
	}

	if rec := get(t, s, "/query"); rec.Code != http.StatusBadRequest {
		t.Fatalf("missing q: status = %d, want 400", rec.Code)
	}
	if rec := get(t, s, "/query?q="+url.QueryEscape("//[")); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad query: status = %d, want 400", rec.Code)
	}
}

func TestQueryLimitRejected(t *testing.T) {
	s := newServer(newTestDB(t), defaultTestConfig())
	// Over the default 4096-byte expression limit: a well-formed but
	// oversized query is a client error.
	huge := "/" + strings.Repeat("a", 5000)
	rec := get(t, s, "/query?q="+url.QueryEscape(huge))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("oversized query: status = %d, want 400 (body %s)", rec.Code, rec.Body)
	}
}

func TestBudgetExceeded422(t *testing.T) {
	db := newTestDB(t)
	db.SetOptions(fix.Options{Limits: fix.Limits{MaxRefineNodes: 1}})
	s := newServer(db, defaultTestConfig())
	rec := get(t, s, "/query?q="+url.QueryEscape("//article[author]"))
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("budget kill: status = %d, want 422 (body %s)", rec.Code, rec.Body)
	}
	// Budget kills are expected governance, not index faults.
	if s.brk.State() != "closed" {
		t.Fatalf("breaker state after budget kill = %s, want closed", s.brk.State())
	}
}

func TestDeadline504(t *testing.T) {
	db := newTestDB(t)
	cfg := defaultTestConfig()
	cfg.requestTimeout = time.Nanosecond
	s := newServer(db, cfg)
	rec := get(t, s, "/query?q="+url.QueryEscape("//article[author]"))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline: status = %d, want 504 (body %s)", rec.Code, rec.Body)
	}
	if s.brk.State() != "closed" {
		t.Fatalf("breaker state after deadline = %s, want closed", s.brk.State())
	}
}

func TestAdmissionShed429(t *testing.T) {
	db := newTestDB(t)
	cfg := defaultTestConfig()
	cfg.maxInFlight = 1
	cfg.queueWait = 5 * time.Millisecond
	s := newServer(db, cfg)

	// Fill the gate so the request cannot be admitted in time.
	if err := s.gate.Acquire(context.Background(), 1); err != nil {
		t.Fatalf("acquire: %v", err)
	}
	rec := get(t, s, "/query?q="+url.QueryEscape("//article[author]"))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated gate: status = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	s.gate.Release(1)
	if rec := get(t, s, "/query?q="+url.QueryEscape("//article[author]")); rec.Code != http.StatusOK {
		t.Fatalf("after release: status = %d, want 200", rec.Code)
	}
}

func TestReadyzReflectsSaturation(t *testing.T) {
	db := newTestDB(t)
	cfg := defaultTestConfig()
	cfg.maxInFlight = 1
	s := newServer(db, cfg)

	rec := get(t, s, "/readyz")
	if rec.Code != http.StatusOK {
		t.Fatalf("idle readyz: status = %d, want 200", rec.Code)
	}
	var ready readyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ready); err != nil {
		t.Fatalf("decoding readyz: %v", err)
	}
	if ready.Status != "ready" || ready.Breaker != "closed" {
		t.Fatalf("readyz = %+v, want ready/closed", ready)
	}

	if err := s.gate.Acquire(context.Background(), 1); err != nil {
		t.Fatalf("acquire: %v", err)
	}
	rec = get(t, s, "/readyz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated readyz: status = %d, want 503", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ready); err != nil {
		t.Fatalf("decoding saturated readyz: %v", err)
	}
	if ready.Status != "saturated" || ready.InFlight != 1 || ready.Capacity != 1 {
		t.Fatalf("readyz = %+v, want saturated 1/1", ready)
	}
	s.gate.Release(1)
}

// TestPanicContainmentDegradesAndBreakerSheds drives the full degraded-
// operation story through HTTP: an injected panic inside the query path
// is contained (500, not a crash), the index is marked degraded (503 on
// /healthz naming the cause), the breaker trips and routes subsequent
// queries to the exact scan fallback, and a later recovery probe closes
// it again.
func TestPanicContainmentDegradesAndBreakerSheds(t *testing.T) {
	db := newTestDB(t)
	cfg := defaultTestConfig()
	cfg.breakerFaults = 1
	cfg.breakerCool = 30 * time.Millisecond
	s := newServer(db, cfg)

	// Inject a fault: the slow-query hook (running inside the query
	// path, below the containment barrier) panics on every query.
	db.SetOptions(fix.Options{
		SlowQueryThreshold: time.Nanosecond,
		OnSlowQuery:        func(fix.QueryTrace) { panic("injected fault") },
	})
	rec := get(t, s, "/query?q="+url.QueryEscape("//article[author]"))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking query: status = %d, want 500 (body %s)", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "panic recovered") {
		t.Fatalf("panicking query body = %q, want ErrPanic text", rec.Body)
	}

	// The contained panic degraded the index: /healthz says so.
	rec = get(t, s, "/healthz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz after panic: status = %d, want 503", rec.Code)
	}
	var health healthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatalf("decoding healthz: %v", err)
	}
	if health.Status != "degraded" || !strings.Contains(health.Cause, "panic") {
		t.Fatalf("healthz = %+v, want degraded with panic cause", health)
	}
	if s.brk.State() != "open" {
		t.Fatalf("breaker state = %s, want open", s.brk.State())
	}

	// Stop injecting; the open breaker still routes around the index.
	db.SetOptions(fix.Options{})
	rec = get(t, s, "/query?q="+url.QueryEscape("//article[author]"))
	if rec.Code != http.StatusOK {
		t.Fatalf("scan-only query: status = %d (body %s)", rec.Code, rec.Body)
	}
	var resp queryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding scan-only response: %v", err)
	}
	if !resp.ScanFallback {
		t.Fatal("open breaker did not force the scan fallback")
	}
	if resp.Count != 2 {
		t.Fatalf("scan-only count = %d, want 2 (fallback must stay exact)", resp.Count)
	}

	// After the cooldown a probe goes back to the index path and, clean,
	// closes the breaker.
	time.Sleep(40 * time.Millisecond)
	rec = get(t, s, "/query?q="+url.QueryEscape("//article[author]"))
	if rec.Code != http.StatusOK {
		t.Fatalf("probe query: status = %d (body %s)", rec.Code, rec.Body)
	}
	if s.brk.State() != "closed" {
		t.Fatalf("breaker state after clean probe = %s, want closed", s.brk.State())
	}

	// The registry counted the contained panic.
	if snap := db.Metrics(); snap.PanicsRecovered < 1 {
		t.Fatalf("panics_recovered = %d, want >= 1", snap.PanicsRecovered)
	}
}

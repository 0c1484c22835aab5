package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"github.com/fix-index/fix/fix"
)

// post runs one POST through the server's handler.
func post(t *testing.T, s *server, path, contentType, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := httptest.NewRecorder()
	s.handler().ServeHTTP(rec, req)
	return rec
}

func decodeIngest(t *testing.T, rec *httptest.ResponseRecorder) ingestResponse {
	t.Helper()
	var resp ingestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding ingest response: %v (body %s)", err, rec.Body)
	}
	return resp
}

func queryCount(t *testing.T, s *server, expr string) int {
	t.Helper()
	rec := get(t, s, "/query?q="+url.QueryEscape(expr))
	if rec.Code != http.StatusOK {
		t.Fatalf("query %s: status = %d (body %s)", expr, rec.Code, rec.Body)
	}
	var resp queryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding query response: %v", err)
	}
	return resp.Count
}

func TestIngestSingleXML(t *testing.T) {
	s := newServer(newTestDB(t), defaultTestConfig())
	defer s.stopWrites()

	rec := post(t, s, "/ingest", "application/xml", `<note><title>z</title></note>`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	resp := decodeIngest(t, rec)
	if resp.Added != 1 || len(resp.IDs) != 1 || resp.IDs[0] != 3 {
		t.Fatalf("response = %+v, want one add with id 3", resp)
	}
	// The acknowledged document is immediately visible.
	if got := queryCount(t, s, "//note"); got != 1 {
		t.Fatalf("//note count = %d, want 1", got)
	}
}

func TestIngestNDJSONMixed(t *testing.T) {
	s := newServer(newTestDB(t), defaultTestConfig())
	defer s.stopWrites()

	body := `{"op":"add","xml":"<note><title>a</title></note>"}
{"op":"add","xml":"<note><title>b</title></note>"}

{"op":"delete","rec":2}
{"op":"add","xml":"<note><title>c</title></note>"}
`
	rec := post(t, s, "/ingest", "application/x-ndjson", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	resp := decodeIngest(t, rec)
	if resp.Added != 3 || resp.Deleted != 1 {
		t.Fatalf("response = %+v, want 3 adds / 1 delete", resp)
	}
	wantIDs := []uint64{3, 4, 5}
	for i, id := range resp.IDs {
		if id != wantIDs[i] {
			t.Fatalf("ids = %v, want %v", resp.IDs, wantIDs)
		}
	}
	if got := queryCount(t, s, "//note"); got != 3 {
		t.Fatalf("//note count = %d, want 3", got)
	}
	// rec 2 was the book; its tombstone hides it from queries.
	if got := queryCount(t, s, "//book"); got != 0 {
		t.Fatalf("//book count after delete = %d, want 0", got)
	}
}

func TestIngestBadInput(t *testing.T) {
	s := newServer(newTestDB(t), defaultTestConfig())
	defer s.stopWrites()

	cases := []struct {
		name string
		body string
	}{
		{"malformed json", `{"op":"add",`},
		{"unknown field", `{"op":"add","xml":"<a/>","bogus":1}`},
		{"trailing data", `{"op":"add","xml":"<a/>"} extra`},
		{"unknown op", `{"op":"upsert","xml":"<a/>"}`},
		{"add without xml", `{"op":"add"}`},
		{"add with rec", `{"op":"add","xml":"<a/>","rec":1}`},
		{"delete without rec", `{"op":"delete"}`},
		{"delete with xml", `{"op":"delete","rec":1,"xml":"<a/>"}`},
		{"empty request", "\n\n"},
		{"bad xml payload", `{"op":"add","xml":"<unclosed>"}`},
	}
	for _, tc := range cases {
		rec := post(t, s, "/ingest", "application/x-ndjson", tc.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %s)", tc.name, rec.Code, rec.Body)
		}
	}
	// A mid-request error must reject the whole request: nothing from the
	// valid leading line may have been committed.
	before := s.db.NumDocuments()
	rec := post(t, s, "/ingest", "application/x-ndjson",
		`{"op":"add","xml":"<note/>"}`+"\n"+`{"op":"add","xml":"<broken"}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("half-bad request: status = %d, want 400", rec.Code)
	}
	if got := s.db.NumDocuments(); got != before {
		t.Fatalf("half-bad request committed documents: %d -> %d", before, got)
	}

	// Raw-XML form: a body that fails to parse is a 400 too.
	if rec := post(t, s, "/ingest", "", `<unclosed>`); rec.Code != http.StatusBadRequest {
		t.Fatalf("raw bad xml: status = %d, want 400", rec.Code)
	}
}

func TestIngestMethodNotAllowed(t *testing.T) {
	s := newServer(newTestDB(t), defaultTestConfig())
	defer s.stopWrites()
	rec := get(t, s, "/ingest")
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /ingest: status = %d, want 405", rec.Code)
	}
	if rec.Header().Get("Allow") != http.MethodPost {
		t.Fatalf("Allow = %q, want POST", rec.Header().Get("Allow"))
	}
}

func TestIngestBodyTooLarge(t *testing.T) {
	cfg := defaultTestConfig()
	cfg.maxIngestBytes = 64
	s := newServer(newTestDB(t), cfg)
	defer s.stopWrites()
	doc := "<a>" + strings.Repeat("x", 200) + "</a>"
	rec := post(t, s, "/ingest", "application/xml", doc)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status = %d, want 413 (body %s)", rec.Code, rec.Body)
	}
}

func TestIngestTooManyOps(t *testing.T) {
	s := newServer(newTestDB(t), defaultTestConfig())
	defer s.stopWrites()
	var sb strings.Builder
	for i := 0; i <= maxIngestOpsPerRequest; i++ {
		sb.WriteString(`{"op":"add","xml":"<a/>"}` + "\n")
	}
	rec := post(t, s, "/ingest", "application/x-ndjson", sb.String())
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("over-long request: status = %d, want 400", rec.Code)
	}
}

func TestIngestDeleteUnknown404(t *testing.T) {
	s := newServer(newTestDB(t), defaultTestConfig())
	defer s.stopWrites()
	rec := post(t, s, "/ingest", "application/x-ndjson", `{"op":"delete","rec":99}`)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("delete of unknown record: status = %d, want 404 (body %s)", rec.Code, rec.Body)
	}
}

func TestIngestGateShed429(t *testing.T) {
	cfg := defaultTestConfig()
	cfg.maxInFlight = 1
	cfg.queueWait = 5 * time.Millisecond
	s := newServer(newTestDB(t), cfg)
	defer s.stopWrites()

	if err := s.gate.Acquire(context.Background(), 1); err != nil {
		t.Fatalf("acquire: %v", err)
	}
	rec := post(t, s, "/ingest", "application/xml", `<a/>`)
	s.gate.Release(1)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated gate: status = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
}

// fakeIngester injects commit-phase errors through the server's
// ingester seam, covering paths a healthy in-process ingester cannot
// reach deterministically (a full queue, a closed ingester).
type fakeIngester struct {
	err   error
	queue int
}

func (f *fakeIngester) AddBatch(ctx context.Context, docs []string) ([]uint32, error) {
	if f.err != nil {
		return nil, f.err
	}
	ids := make([]uint32, len(docs))
	return ids, nil
}

func (f *fakeIngester) Delete(ctx context.Context, rec uint32) error { return f.err }
func (f *fakeIngester) QueueLen() int                                { return f.queue }
func (f *fakeIngester) Close() error                                 { return nil }

func TestIngestQueueFull429(t *testing.T) {
	s := newServer(newTestDB(t), defaultTestConfig())
	defer s.stopWrites()
	s.ing = &fakeIngester{err: fmt.Errorf("wrapped: %w", fix.ErrIngestQueueFull)}

	rec := post(t, s, "/ingest", "application/xml", `<a/>`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("full queue: status = %d, want 429 (body %s)", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
}

func TestIngestClosed503(t *testing.T) {
	s := newServer(newTestDB(t), defaultTestConfig())
	defer s.stopWrites()
	s.ing = &fakeIngester{err: fix.ErrIngesterClosed}

	rec := post(t, s, "/ingest", "application/xml", `<a/>`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("closed ingester: status = %d, want 503 (body %s)", rec.Code, rec.Body)
	}
}

// TestIngestHealthzLag drives the durable path end to end on disk: the
// WAL lag appears in /healthz and in the ingest response, and a Save
// absorbs it back to zero.
func TestIngestHealthzLag(t *testing.T) {
	dir := t.TempDir()
	db, err := fix.Create(dir)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer func() { _ = db.Close() }()
	if _, err := db.AddDocumentString(`<seed/>`); err != nil {
		t.Fatalf("AddDocumentString: %v", err)
	}
	if err := db.Save(); err != nil {
		t.Fatalf("Save: %v", err)
	}
	s := newServer(db, defaultTestConfig())
	defer s.stopWrites()

	rec := post(t, s, "/ingest", "application/x-ndjson",
		`{"op":"add","xml":"<a/>"}`+"\n"+`{"op":"add","xml":"<b/>"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	if resp := decodeIngest(t, rec); resp.IngestLag != 2 {
		t.Fatalf("response lag = %d, want 2", resp.IngestLag)
	}

	hrec := get(t, s, "/healthz")
	if hrec.Code != http.StatusOK {
		t.Fatalf("healthz status = %d (body %s)", hrec.Code, hrec.Body)
	}
	var health healthResponse
	if err := json.Unmarshal(hrec.Body.Bytes(), &health); err != nil {
		t.Fatalf("decoding healthz: %v", err)
	}
	if health.IngestLag != 2 {
		t.Fatalf("healthz ingest_lag = %d, want 2", health.IngestLag)
	}

	if err := db.Save(); err != nil {
		t.Fatalf("Save: %v", err)
	}
	hrec = get(t, s, "/healthz")
	if err := json.Unmarshal(hrec.Body.Bytes(), &health); err != nil {
		t.Fatalf("decoding healthz after save: %v", err)
	}
	if health.IngestLag != 0 {
		t.Fatalf("healthz ingest_lag after Save = %d, want 0", health.IngestLag)
	}
}

func FuzzIngestRequest(f *testing.F) {
	f.Add(`{"op":"add","xml":"<a/>"}`)
	f.Add(`{"op":"delete","rec":7}`)
	f.Add(`{"op":"add","xml":"<a/>"}` + "\n" + `{"op":"delete","rec":0}` + "\n")
	f.Add(`{"op":"upsert"}`)
	f.Add(`{"op":"add",`)
	f.Add("\n\n\n")
	f.Add(`{"op":"add","xml":""}`)
	f.Add(`{"op":"delete","rec":-1}`)
	f.Add(`{"op":"delete","rec":4294967296}`)
	f.Add(`{"op":"add","xml":"<a/>"} {"op":"add","xml":"<b/>"}`)
	f.Fuzz(func(t *testing.T, data string) {
		ops, err := parseIngestOps([]byte(data))
		if err != nil {
			return
		}
		// A nil error promises well-formed operations downstream code can
		// execute without re-checking shape.
		if len(ops) == 0 {
			t.Fatal("nil error with zero operations")
		}
		for i, op := range ops {
			switch op.Op {
			case "add":
				if op.XML == "" || op.Rec != nil {
					t.Fatalf("op %d: malformed add accepted: %+v", i, op)
				}
			case "delete":
				if op.Rec == nil || op.XML != "" {
					t.Fatalf("op %d: malformed delete accepted: %+v", i, op)
				}
			default:
				t.Fatalf("op %d: unknown op %q accepted", i, op.Op)
			}
		}
	})
}

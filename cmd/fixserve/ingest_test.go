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
	"github.com/fix-index/fix/internal/collection"
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
		{"prefixed name whose local part is not a name", `{"op":"add","xml":"<A:0/>"}`},
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

func (f *fakeIngester) Apply(ctx context.Context, ops []fix.Op) ([]uint32, error) {
	if f.err != nil {
		return nil, f.err
	}
	return make([]uint32, len(ops)), nil
}

func (f *fakeIngester) QueueLen() int { return f.queue }
func (f *fakeIngester) Close() error  { return nil }

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

// ingestCounters reads the process-wide ingest counters off /metrics.
func ingestCounters(t *testing.T, h http.Handler) (batches, fsyncs int64) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var m struct {
		IngestBatches int64 `json:"ingest_batches"`
		IngestFsyncs  int64 `json:"ingest_fsyncs"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("decoding /metrics: %v (body %s)", err, rec.Body)
	}
	return m.IngestBatches, m.IngestFsyncs
}

// TestIngestRequestIsOneCommit: one NDJSON request of 4 adds and 4
// deletes — two of them of documents the request itself adds — is one
// group commit, one fsync and one published generation in single-index
// mode, and one of each per touched shard in collection mode. A delete of
// an unknown document is a 404 that leaves nothing of the request behind.
func TestIngestRequestIsOneCommit(t *testing.T) {
	ndjson := func(adds []string, deletes []uint64) string {
		var sb strings.Builder
		for i := range adds {
			fmt.Fprintf(&sb, "{\"op\":\"add\",\"xml\":%q}\n{\"op\":\"delete\",\"rec\":%d}\n", adds[i], deletes[i])
		}
		return sb.String()
	}
	t.Run("single index", func(t *testing.T) {
		db, err := fix.Create(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = db.Close() }()
		for _, d := range []string{`<book><title>a</title></book>`, `<book><title>b</title></book>`} {
			if _, err := db.AddDocumentString(d); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.BuildIndex(fix.IndexOptions{}); err != nil {
			t.Fatal(err)
		}
		s := newServer(db, defaultTestConfig())
		defer s.stopWrites()
		if rec := post(t, s, "/ingest", "application/xml", `<warm/>`); rec.Code != http.StatusOK { // creates the WAL
			t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
		}
		// Records 3-6 are the request's own adds: it deletes two old
		// documents, one it added before the delete, and — 404 — not one it
		// adds after it.
		adds := []string{`<note><n>0</n></note>`, `<note><n>1</n></note>`, `<note><n>2</n></note>`, `<note><n>3</n></note>`}
		docs, gen := db.NumDocuments(), db.GenerationID()
		if rec := post(t, s, "/ingest", "application/x-ndjson", ndjson(adds, []uint64{0, 1, 6, 4})); rec.Code != http.StatusNotFound {
			t.Fatalf("delete of a record not yet added: status = %d, want 404 (body %s)", rec.Code, rec.Body)
		}
		if db.NumDocuments() != docs || db.GenerationID() != gen {
			t.Fatalf("the 404 left something behind: %d -> %d documents, generation %d -> %d", docs, db.NumDocuments(), gen, db.GenerationID())
		}
		b0, f0 := ingestCounters(t, s.handler())
		rec := post(t, s, "/ingest", "application/x-ndjson", ndjson(adds, []uint64{0, 1, 3, 4}))
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
		}
		if resp := decodeIngest(t, rec); resp.Added != 4 || resp.Deleted != 4 || fmt.Sprint(resp.IDs) != "[3 4 5 6]" || resp.IngestLag != 9 {
			t.Fatalf("response = %+v, want ids 3-6, 4 adds, 4 deletes, lag 9", resp)
		}
		b1, f1 := ingestCounters(t, s.handler())
		if b1-b0 != 1 || f1-f0 != 1 || db.GenerationID()-gen != 1 {
			t.Fatalf("%d group commits, %d fsyncs, %d generations; want 1 of each", b1-b0, f1-f0, db.GenerationID()-gen)
		}
		if got := queryCount(t, s, "//note"); got != 2 {
			t.Fatalf("//note count = %d, want 2", got)
		}
		if got := queryCount(t, s, "//book"); got != 0 {
			t.Fatalf("//book count = %d, want 0", got)
		}
	})
	t.Run("collection", func(t *testing.T) {
		cs := newTestColServer(t, collection.Options{}, defaultTestConfig())
		createCollection(t, cs, `{"name":"books","shards":4}`)
		shardOf := func(label string) int { return collection.ShardForLabel(label, 4) }
		if shardOf("book") == shardOf("paper") {
			t.Fatal("fixture: book and paper route to the same shard")
		}
		rec := cs.do(t, http.MethodPost, "/c/books/ingest", "application/x-ndjson",
			`{"op":"add","xml":"<book><title>a</title></book>"}`+"\n"+`{"op":"add","xml":"<paper><title>b</title></paper>"}`)
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
		}
		old := decodeIngest(t, rec).IDs
		col, release, err := cs.svc.Acquire("books")
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		gens := func() (out [4]uint64) {
			for i := range out {
				out[i] = col.Shard(i).DB.GenerationID()
			}
			return out
		}
		adds := []string{`<book><n>0</n></book>`, `<paper><n>1</n></paper>`, `<book><n>2</n></book>`, `<paper><n>3</n></paper>`}
		// Each shard's old document, then each shard's first add of this
		// request (record 1 there).
		deletes := []uint64{old[0], old[1], collection.GlobalID(shardOf("book"), 1), collection.GlobalID(shardOf("paper"), 1)}
		g0 := gens()
		b0, f0 := ingestCounters(t, cs.handler())
		rec = cs.do(t, http.MethodPost, "/c/books/ingest", "application/x-ndjson", ndjson(adds, deletes))
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
		}
		if resp := decodeIngest(t, rec); resp.Added != 4 || resp.Deleted != 4 || len(resp.IDs) != 4 {
			t.Fatalf("response = %+v, want 4 adds / 4 deletes", resp)
		}
		b1, f1 := ingestCounters(t, cs.handler())
		if b1-b0 != 2 || f1-f0 != 2 {
			t.Fatalf("%d group commits and %d fsyncs for two touched shards, want 2 and 2", b1-b0, f1-f0)
		}
		for i, g := range gens() {
			want := uint64(0)
			if i == shardOf("book") || i == shardOf("paper") {
				want = 1
			}
			if g-g0[i] != want {
				t.Errorf("shard %d published %d generations, want %d", i, g-g0[i], want)
			}
		}
		if got := col.NumDocuments(); got != 2 {
			t.Fatalf("%d live documents, want 2", got)
		}
		// The paper shard's submission names a record it never assigned:
		// 404, and nothing of the request on that shard.
		jdb := col.Shard(shardOf("paper")).DB
		docs, gen := jdb.NumDocuments(), jdb.GenerationID()
		rec = cs.do(t, http.MethodPost, "/c/books/ingest", "application/x-ndjson",
			ndjson([]string{`<paper><n>4</n></paper>`}, []uint64{collection.GlobalID(shardOf("paper"), 99)}))
		if rec.Code != http.StatusNotFound {
			t.Fatalf("delete of an unknown document: status = %d, want 404 (body %s)", rec.Code, rec.Body)
		}
		if jdb.NumDocuments() != docs || jdb.GenerationID() != gen {
			t.Fatalf("the 404 left something behind on its shard")
		}
	})
}

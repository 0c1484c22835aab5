package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/fix-index/fix/fix"
	"github.com/fix-index/fix/internal/collection"
)

// newTestColServer opens an empty collection service in a temp dir and
// wraps it in a collection-mode server.
func newTestColServer(t *testing.T, opts collection.Options, cfg serverConfig) *colServer {
	t.Helper()
	svc, err := collection.OpenService(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = svc.Close() })
	return newColServer(svc, cfg)
}

// do runs one request through the collection-mode handler.
func (cs *colServer) do(t *testing.T, method, path, contentType, body string) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body == "" {
		req = httptest.NewRequest(method, path, nil)
	} else {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := httptest.NewRecorder()
	cs.handler().ServeHTTP(rec, req)
	return rec
}

// createCollection creates a collection over HTTP and fails the test on
// any status but 201.
func createCollection(t *testing.T, cs *colServer, body string) {
	t.Helper()
	rec := cs.do(t, http.MethodPost, "/collections", "application/json", body)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create %s: status = %d, body %s", body, rec.Code, rec.Body)
	}
}

func TestCollectionAdminFlow(t *testing.T) {
	cs := newTestColServer(t, collection.Options{}, defaultTestConfig())

	createCollection(t, cs, `{"name":"books","shards":2}`)
	if rec := cs.do(t, http.MethodPost, "/collections", "application/json", `{"name":"books"}`); rec.Code != http.StatusConflict {
		t.Fatalf("duplicate create: status = %d, want 409", rec.Code)
	}
	if rec := cs.do(t, http.MethodPost, "/collections", "application/json", `{"name":"no/slash"}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad name: status = %d, want 400", rec.Code)
	}
	if rec := cs.do(t, http.MethodPost, "/collections", "application/json", `{"name":"x","bogus":1}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown field: status = %d, want 400", rec.Code)
	}

	createCollection(t, cs, `{"name":"films","shards":1,"weight":2}`)
	rec := cs.do(t, http.MethodGet, "/collections", "", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("list: status = %d", rec.Code)
	}
	var list listResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Collections) != 2 || list.Collections[0].Spec.Name != "books" || list.Collections[1].Spec.Name != "films" {
		t.Fatalf("list = %+v, want [books films]", list)
	}
	if list.Collections[1].Spec.Weight != 2 {
		t.Fatalf("films weight = %d, want 2", list.Collections[1].Spec.Weight)
	}

	if rec := cs.do(t, http.MethodDelete, "/collections/films", "", ""); rec.Code != http.StatusNoContent {
		t.Fatalf("drop: status = %d, want 204", rec.Code)
	}
	if rec := cs.do(t, http.MethodDelete, "/collections/films", "", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("double drop: status = %d, want 404", rec.Code)
	}
	if rec := cs.do(t, http.MethodGet, "/c/films/query?q=//x", "", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("query on dropped collection: status = %d, want 404", rec.Code)
	}
	if rec := cs.do(t, http.MethodGet, "/c/nope/stats", "", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("stats on unknown collection: status = %d, want 404", rec.Code)
	}
}

func TestCollectionQueryIngestStats(t *testing.T) {
	cs := newTestColServer(t, collection.Options{}, defaultTestConfig())
	createCollection(t, cs, `{"name":"books","shards":4}`)

	// Raw-XML ingest: one routed add, global ID comes back.
	rec := cs.do(t, http.MethodPost, "/c/books/ingest", "application/xml",
		`<book><title>one</title></book>`)
	if rec.Code != http.StatusOK {
		t.Fatalf("raw ingest: status = %d, body %s", rec.Code, rec.Body)
	}
	var ing ingestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ing); err != nil {
		t.Fatal(err)
	}
	if ing.Added != 1 || len(ing.IDs) != 1 {
		t.Fatalf("raw ingest response = %+v", ing)
	}
	bookShard, _ := collection.SplitID(ing.IDs[0])
	if want := collection.ShardForLabel("book", 4); bookShard != want {
		t.Fatalf("book routed to shard %d, want %d", bookShard, want)
	}

	// NDJSON ingest: adds with two different roots route to their
	// shards; the later delete addresses a global ID.
	body := `{"op":"add","xml":"<book><title>two</title></book>"}
{"op":"add","xml":"<journal><title>j1</title></journal>"}
`
	rec = cs.do(t, http.MethodPost, "/c/books/ingest", "application/x-ndjson", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("ndjson ingest: status = %d, body %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ing); err != nil {
		t.Fatal(err)
	}
	if ing.Added != 2 {
		t.Fatalf("ndjson ingest response = %+v", ing)
	}
	jShard, _ := collection.SplitID(ing.IDs[1])
	if want := collection.ShardForLabel("journal", 4); jShard != want {
		t.Fatalf("journal routed to shard %d, want %d", jShard, want)
	}

	// A malformed document in a multi-op request is rejected before
	// anything commits.
	bad := `{"op":"add","xml":"<book><title>three</title></book>"}
{"op":"add","xml":"<unclosed>"}
`
	if rec := cs.do(t, http.MethodPost, "/c/books/ingest", "application/x-ndjson", bad); rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed doc: status = %d, want 400", rec.Code)
	}

	// Scattered query: all four shards probed in order, counts merged.
	rec = cs.do(t, http.MethodGet, "/c/books/query?q="+url.QueryEscape("//title"), "", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("query: status = %d, body %s", rec.Code, rec.Body)
	}
	var qr colQueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Count != 3 || qr.Targeted || qr.Partial || len(qr.Shards) != 4 {
		t.Fatalf("scattered query = %+v, want 3 results over 4 shards", qr)
	}

	// Targeted query with trace: one shard row carrying an attributed
	// trace.
	rec = cs.do(t, http.MethodGet, "/c/books/query?q="+url.QueryEscape("/journal/title")+"&trace=1", "", "")
	if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
		t.Fatal(err)
	}
	if !qr.Targeted || len(qr.Shards) != 1 || qr.Count != 1 {
		t.Fatalf("targeted query = %+v", qr)
	}
	if tr := qr.Shards[0].Trace; tr == nil || tr.Collection != "books" || tr.Shard != jShard {
		t.Fatalf("targeted trace = %+v, want books/%d attribution", qr.Shards[0].Trace, jShard)
	}

	// Delete by global ID, then verify the count dropped.
	rec = cs.do(t, http.MethodPost, "/c/books/ingest", "application/x-ndjson",
		fmt.Sprintf(`{"op":"delete","rec":%d}`, ing.IDs[1]))
	if rec.Code != http.StatusOK {
		t.Fatalf("delete: status = %d, body %s", rec.Code, rec.Body)
	}
	rec = cs.do(t, http.MethodGet, "/c/books/query?q="+url.QueryEscape("//title"), "", "")
	if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Count != 2 {
		t.Fatalf("count after delete = %d, want 2", qr.Count)
	}

	// Stats: aggregated counts plus one row per shard.
	rec = cs.do(t, http.MethodGet, "/c/books/stats", "", "")
	var st collection.Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Spec.Name != "books" || st.Documents != 2 || len(st.Shards) != 4 {
		t.Fatalf("stats = %+v, want books with 2 live docs over 4 shards", st)
	}

	// Healthz aggregates every shard of every collection.
	rec = cs.do(t, http.MethodGet, "/healthz", "", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: status = %d, body %s", rec.Code, rec.Body)
	}
	var health colHealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || len(health.Collections["books"]) != 4 {
		t.Fatalf("healthz = %+v, want ok with 4 book shards", health)
	}
}

// TestCollectionShardDeadlineOverHTTP configures an unmeetable
// per-shard deadline and checks it is enforced end to end: the response
// is 200 with Partial set and every shard row timed out.
func TestCollectionShardDeadlineOverHTTP(t *testing.T) {
	cs := newTestColServer(t, collection.Options{ShardTimeout: time.Nanosecond}, defaultTestConfig())
	createCollection(t, cs, `{"name":"slow","shards":2}`)
	rec := cs.do(t, http.MethodPost, "/c/slow/ingest", "application/xml", `<a><b>x</b></a>`)
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest: status = %d, body %s", rec.Code, rec.Body)
	}
	rec = cs.do(t, http.MethodGet, "/c/slow/query?q="+url.QueryEscape("//b"), "", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("query: status = %d, body %s", rec.Code, rec.Body)
	}
	var qr colQueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
		t.Fatal(err)
	}
	if !qr.Partial || qr.Count != 0 {
		t.Fatalf("1ns shard deadline produced %+v, want all-shards-partial", qr)
	}
	for _, r := range qr.Shards {
		if !r.TimedOut {
			t.Fatalf("shard row %+v, want TimedOut", r)
		}
	}
}

// TestPerTenantAdmissionWeight pins the shared gate and checks a
// heavy-weight collection's request is shed while a light one passes:
// per-tenant weights at work.
func TestPerTenantAdmissionWeight(t *testing.T) {
	cfg := defaultTestConfig()
	cfg.maxInFlight = 3
	cfg.queueWait = 5 * time.Millisecond
	cs := newTestColServer(t, collection.Options{}, cfg)
	createCollection(t, cs, `{"name":"light","shards":1,"weight":1}`)
	createCollection(t, cs, `{"name":"heavy","shards":1,"weight":2}`)

	// Occupy 2 of 3 units: a heavy query (weight 2) no longer fits, a
	// light one (weight 1) still does.
	if err := cs.gate.Acquire(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	defer cs.gate.Release(2)

	if rec := cs.do(t, http.MethodGet, "/c/heavy/query?q="+url.QueryEscape("//x"), "", ""); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("heavy query: status = %d, want 429", rec.Code)
	} else if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if rec := cs.do(t, http.MethodGet, "/c/light/query?q="+url.QueryEscape("//x"), "", ""); rec.Code != http.StatusOK {
		t.Fatalf("light query: status = %d, want 200", rec.Code)
	}
}

// TestCollectionServerAcceptance is the acceptance criterion run: a
// two-collection, four-shard-each server taking concurrent
// scatter-gather queries, targeted queries and routed NDJSON ingest,
// with per-shard deadlines configured — then final counts reconciled
// exactly. Run it under -race via `make serve-smoke`.
func TestCollectionServerAcceptance(t *testing.T) {
	cfg := defaultTestConfig()
	cfg.maxInFlight = 16
	cfg.queueWait = 2 * time.Second
	cs := newTestColServer(t, collection.Options{ShardTimeout: 10 * time.Second}, cfg)
	createCollection(t, cs, `{"name":"books","shards":4}`)
	createCollection(t, cs, `{"name":"films","shards":4,"weight":2}`)

	labels := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	const (
		writersPerCol = 2
		batches       = 10
		perBatch      = 3
	)
	var wg sync.WaitGroup
	errc := make(chan error, 32)
	for _, col := range []string{"books", "films"} {
		for w := 0; w < writersPerCol; w++ {
			wg.Add(1)
			go func(col string, w int) {
				defer wg.Done()
				for b := 0; b < batches; b++ {
					var sb strings.Builder
					for i := 0; i < perBatch; i++ {
						l := labels[(w*batches+b+i)%len(labels)]
						fmt.Fprintf(&sb, `{"op":"add","xml":"<%s><item>v</item></%s>"}`+"\n", l, l)
					}
					rec := cs.do(t, http.MethodPost, "/c/"+col+"/ingest", "application/x-ndjson", sb.String())
					if rec.Code != http.StatusOK {
						errc <- fmt.Errorf("%s writer %d: status %d: %s", col, w, rec.Code, rec.Body)
						return
					}
				}
			}(col, w)
		}
		for q := 0; q < 2; q++ {
			wg.Add(1)
			go func(col string, q int) {
				defer wg.Done()
				for i := 0; i < 25; i++ {
					expr := "//item"
					if i%2 == 0 {
						expr = "/" + labels[i%len(labels)] + "/item"
					}
					path := "/c/" + col + "/query?q=" + url.QueryEscape(expr)
					if i%5 == 0 {
						path += "&trace=1"
					}
					rec := cs.do(t, http.MethodGet, path, "", "")
					if rec.Code != http.StatusOK {
						errc <- fmt.Errorf("%s querier %d: status %d: %s", col, q, rec.Code, rec.Body)
						return
					}
					var qr colQueryResponse
					if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
						errc <- err
						return
					}
					if qr.Partial {
						errc <- fmt.Errorf("%s querier %d: spurious partial: %+v", col, q, qr)
						return
					}
				}
			}(col, q)
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if rec := cs.do(t, http.MethodGet, "/healthz", "", ""); rec.Code != http.StatusOK {
				errc <- fmt.Errorf("healthz during load: status %d", rec.Code)
				return
			}
			if rec := cs.do(t, http.MethodGet, "/c/books/stats", "", ""); rec.Code != http.StatusOK {
				errc <- fmt.Errorf("stats during load: status %d", rec.Code)
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if t.Failed() {
		return
	}

	want := writersPerCol * batches * perBatch
	for _, col := range []string{"books", "films"} {
		rec := cs.do(t, http.MethodGet, "/c/"+col+"/query?q="+url.QueryEscape("//item"), "", "")
		var qr colQueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
			t.Fatal(err)
		}
		if qr.Count != want || qr.Partial || len(qr.Shards) != 4 {
			t.Errorf("%s final count = %d (partial=%v, shards=%d), want %d over 4 shards",
				col, qr.Count, qr.Partial, len(qr.Shards), want)
		}
	}
}

// TestPlanCacheCountersServed: /metrics serves plan_cache_hits and
// plan_cache_misses in both modes. A text's first query misses on every
// shard it reaches and its repeat hits on each of them.
func TestPlanCacheCountersServed(t *testing.T) {
	counters := func(t *testing.T, h http.Handler) (hits, misses int64) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		var m struct {
			Hits   *int64 `json:"plan_cache_hits"`
			Misses *int64 `json:"plan_cache_misses"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil || m.Hits == nil || m.Misses == nil {
			t.Fatalf("/metrics without the plan-cache counters: %v (body %s)", err, rec.Body)
		}
		return *m.Hits, *m.Misses
	}
	check := func(t *testing.T, h http.Handler, path string, shards int64) {
		t.Helper()
		h0, m0 := counters(t, h)
		for i := range 2 {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("query %d: status = %d, body %s", i, rec.Code, rec.Body)
			}
		}
		if h1, m1 := counters(t, h); h1-h0 != shards || m1-m0 != shards {
			t.Errorf("two queries over %d shards: %d hits, %d misses; want %d of each", shards, h1-h0, m1-m0, shards)
		}
	}
	t.Run("single index", func(t *testing.T) {
		s := newServer(newTestDB(t), defaultTestConfig())
		check(t, s.handler(), "/query?q="+url.QueryEscape("//article[author]/title"), 1)
	})
	t.Run("collection", func(t *testing.T) {
		cs := newTestColServer(t, collection.Options{}, defaultTestConfig())
		createCollection(t, cs, `{"name":"books","shards":3}`)
		check(t, cs.handler(), "/c/books/query?q="+url.QueryEscape("//book[title]"), 3)
	})
}

// TestSketchPrunedServed: a query's trace=1 body and /metrics both report
// the entries the chunks' pair sketches dropped. On newTestDB's
// collection index //article[author] scans every label partition, and σ
// keeps the book, whose sketch lacks the article/author pair.
func TestSketchPrunedServed(t *testing.T) {
	h := newServer(newTestDB(t), defaultTestConfig()).handler()
	pruned := func() int64 {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		var m struct {
			Pruned *int64 `json:"sketch_pruned"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil || m.Pruned == nil {
			t.Fatalf("/metrics without sketch_pruned: %v (body %s)", err, rec.Body)
		}
		return *m.Pruned
	}
	before := pruned()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/query?q="+url.QueryEscape("//article[author]")+"&trace=1", nil))
	var body struct {
		Count int `json:"count"`
		Trace struct {
			Candidates int  `json:"candidates"`
			Pruned     *int `json:"sketch_pruned"`
		} `json:"trace"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Trace.Pruned == nil {
		t.Fatalf("trace without sketch_pruned: %v (body %s)", err, rec.Body)
	}
	if body.Count != 2 || body.Trace.Candidates != 2 || *body.Trace.Pruned != 1 {
		t.Errorf("//article[author]: %d results, %d candidates, %d dropped by the sketch; want 2, 2, 1", body.Count, body.Trace.Candidates, *body.Trace.Pruned)
	}
	if d := pruned() - before; d != 1 {
		t.Errorf("/metrics sketch_pruned moved by %d, want 1", d)
	}
}

// TestSharedMatchesServed: a query's trace=1 body and /metrics both report
// the candidates answered by their chunk's first match. The three <a>
// documents differ only in text, so their units agree throughout and one
// match of /a[b] answers the other two.
func TestSharedMatchesServed(t *testing.T) {
	db, err := fix.CreateMem()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{"<a><b>1</b></a>", "<a><b>2</b></a>", "<a><b>3</b></a>"} {
		if _, err := db.AddDocumentString(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.BuildIndex(fix.IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	h := newServer(db, defaultTestConfig()).handler()
	shared := func() int64 {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		var m struct {
			Shared *int64 `json:"shared_matches"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil || m.Shared == nil {
			t.Fatalf("/metrics without shared_matches: %v (body %s)", err, rec.Body)
		}
		return *m.Shared
	}
	before := shared()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/query?q="+url.QueryEscape("/a[b]")+"&trace=1", nil))
	var body struct {
		Count int `json:"count"`
		Trace struct {
			Candidates int  `json:"candidates"`
			Shared     *int `json:"shared_matches"`
		} `json:"trace"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Trace.Shared == nil {
		t.Fatalf("trace without shared_matches: %v (body %s)", err, rec.Body)
	}
	if body.Count != 3 || body.Trace.Candidates != 3 || *body.Trace.Shared != 2 {
		t.Errorf("/a[b]: %d results, %d candidates, %d answered by their chunk's first match; want 3, 3, 2", body.Count, body.Trace.Candidates, *body.Trace.Shared)
	}
	if d := shared() - before; d != 2 {
		t.Errorf("/metrics shared_matches moved by %d, want 2", d)
	}
}

package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/fix-index/fix/fix"
	"github.com/fix-index/fix/internal/collection"
)

// newDiskServer builds a server over a persistent DB (the admin
// checkpoint surface needs one; CreateMem has nothing to checkpoint).
func newDiskServer(t *testing.T) (*server, *fix.DB) {
	t.Helper()
	db, err := fix.Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	s := newServer(db, defaultTestConfig())
	t.Cleanup(func() { _ = s.stopWrites() })
	return s, db
}

func TestAdminCheckpointEndpoint(t *testing.T) {
	s, db := newDiskServer(t)
	if _, err := db.IngestBatchCtx(context.Background(), []string{"<a/>", "<b/>"}); err != nil {
		t.Fatal(err)
	}
	if db.IngestLag() != 2 {
		t.Fatalf("IngestLag = %d before the checkpoint", db.IngestLag())
	}
	rec := post(t, s, "/admin/checkpoint", "", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	var resp checkpointResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding checkpoint response: %v", err)
	}
	if resp.Status != "ok" {
		t.Errorf("status = %q", resp.Status)
	}
	if db.IngestLag() != 0 {
		t.Errorf("IngestLag = %d after the checkpoint", db.IngestLag())
	}
}

func TestAdminCheckpointMemDBFails(t *testing.T) {
	s := newServer(newTestDB(t), defaultTestConfig())
	defer s.stopWrites()
	rec := post(t, s, "/admin/checkpoint", "", "")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("checkpoint on an in-memory DB: status = %d, body %s", rec.Code, rec.Body)
	}
}

// TestAdminCheckpointRoutesThroughMaintainer checks the handler feeds a
// running maintainer's state machine rather than checkpointing behind
// its back.
func TestAdminCheckpointRoutesThroughMaintainer(t *testing.T) {
	s, db := newDiskServer(t)
	m, err := db.StartMaintainer(context.Background(), fix.MaintainConfig{
		Interval:      time.Hour, // never ticks; only explicit kicks
		ScrubInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	s.setMaintainer(m)

	if _, err := db.IngestBatchCtx(context.Background(), []string{"<a/>"}); err != nil {
		t.Fatal(err)
	}
	rec := post(t, s, "/admin/checkpoint", "", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	if got := m.Health().Checkpoints; got != 1 {
		t.Errorf("maintainer recorded %d checkpoints, want 1", got)
	}
}

func TestHealthzReportsMaintainer(t *testing.T) {
	s, db := newDiskServer(t)

	// Without a maintainer: WAL fields present, maintainer omitted.
	rec := get(t, s, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	var resp healthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Maintainer != nil {
		t.Errorf("maintainer reported with none running: %+v", resp.Maintainer)
	}

	m, err := db.StartMaintainer(context.Background(), fix.MaintainConfig{
		Interval: time.Hour, ScrubInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	s.setMaintainer(m)
	if _, err := db.IngestBatchCtx(context.Background(), []string{"<a/>"}); err != nil {
		t.Fatal(err)
	}

	rec = get(t, s, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("status with idle maintainer = %d, body %s", rec.Code, rec.Body)
	}
	resp = healthResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Maintainer == nil || resp.Maintainer.State != fix.MaintainIdle {
		t.Fatalf("maintainer block = %+v, want idle state", resp.Maintainer)
	}
	if resp.WALBytes <= 0 {
		t.Errorf("wal_bytes = %d with a non-empty WAL", resp.WALBytes)
	}
	if resp.LastCheckpointAge < 0 {
		t.Errorf("last_checkpoint_age_seconds = %f", resp.LastCheckpointAge)
	}
}

// maintainedColServer is a collection-mode server whose shards run
// maintainers the way main starts them — one policy on the service's
// Options, built from -checkpoint-* style thresholds, no -save-interval
// — except that triggers are evaluated every few milliseconds instead
// of every second.
func maintainedColServer(t *testing.T, mcfg fix.MaintainConfig) (cs *colServer, root string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	mcfg.Interval = 5 * time.Millisecond
	mcfg.ScrubInterval = -1
	root = t.TempDir()
	svc, err := collection.OpenService(root, collection.Options{
		Maintain: &collection.Maintenance{Ctx: ctx, Config: mcfg},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = svc.Close() })
	return newColServer(svc, defaultTestConfig()), root
}

// metricsCheckpoints reads the checkpoints counter off GET /metrics.
func metricsCheckpoints(t *testing.T, cs *colServer) int64 {
	t.Helper()
	rec := cs.do(t, http.MethodGet, "/metrics", "", "")
	var m struct {
		Checkpoints int64 `json:"checkpoints"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("decoding /metrics: %v", err)
	}
	return m.Checkpoints
}

// colHealth fetches collection-mode /healthz.
func colHealth(t *testing.T, cs *colServer) (int, colHealthResponse) {
	t.Helper()
	rec := cs.do(t, http.MethodGet, "/healthz", "", "")
	var h colHealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatalf("decoding /healthz: %v", err)
	}
	return rec.Code, h
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCollectionThresholdCheckpoint covers what collection mode gained
// from running the single-index maintainer: a collection created over
// HTTP after start-up keeps its maintainers once the creating request's
// context is gone, a shard checkpoints when its WAL crosses the ops
// threshold (no -save-interval anywhere), GET /metrics counts that
// checkpoint, and /healthz carries the shard's maintainer block.
func TestCollectionThresholdCheckpoint(t *testing.T) {
	cs, _ := maintainedColServer(t, fix.MaintainConfig{WALOps: 2, WALBytes: -1, MaxAge: -1})

	reqCtx, reqDone := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/collections", strings.NewReader(`{"name":"books","shards":2}`)).WithContext(reqCtx)
	rec := httptest.NewRecorder()
	cs.handler().ServeHTTP(rec, req)
	reqDone()
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: status = %d, body %s", rec.Code, rec.Body)
	}

	before := metricsCheckpoints(t, cs)
	ingest := func() {
		t.Helper()
		if rec := cs.do(t, http.MethodPost, "/c/books/ingest", "application/xml", `<book><title>t</title></book>`); rec.Code != http.StatusOK {
			t.Fatalf("ingest: status = %d, body %s", rec.Code, rec.Body)
		}
	}
	ingest()
	time.Sleep(50 * time.Millisecond) // ten ticks below the threshold
	if got := metricsCheckpoints(t, cs); got != before {
		t.Fatalf("checkpoints %d -> %d with one operation in a WAL whose threshold is two", before, got)
	}
	ingest()
	waitUntil(t, "/metrics to count the threshold checkpoint", func() bool { return metricsCheckpoints(t, cs) > before })

	shard := collection.ShardForLabel("book", 2)
	waitUntil(t, "/healthz to show the shard's maintainer checkpoint", func() bool {
		code, h := colHealth(t, cs)
		row := h.Collections["books"][shard]
		if code != http.StatusOK || row.Maintainer == nil || row.Maintainer.State != fix.MaintainIdle {
			t.Fatalf("/healthz = %d, shard row %+v; want 200 with an idle maintainer", code, row)
		}
		return row.Maintainer.Checkpoints >= 1 && row.IngestLag == 0
	})
	if _, h := colHealth(t, cs); h.Collections["books"][1-shard].Maintainer.Checkpoints != 0 {
		t.Errorf("the shard that received nothing was checkpointed: %+v", h.Collections["books"][1-shard])
	}
}

// TestCollectionHealthzSuspendedMaintainer makes one shard's checkpoints
// fail (a directory squats on the dictionary's temp path): its
// maintainer suspends, and /healthz turns 503 naming that shard with the
// cause single-index mode reports — while the shard keeps serving.
func TestCollectionHealthzSuspendedMaintainer(t *testing.T) {
	cs, root := maintainedColServer(t, fix.MaintainConfig{WALOps: 1, MaxFailures: 1})
	createCollection(t, cs, `{"name":"books","shards":2}`)
	col, release, err := cs.svc.Acquire("books")
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	shard := collection.ShardForLabel("book", 2)
	add := func() {
		t.Helper()
		if _, err := col.Add(context.Background(), `<book><title>t</title></book>`); err != nil {
			t.Fatal(err)
		}
	}
	// The first write opens the shard's WAL (which saves the dictionary
	// once itself); let its checkpoint through before breaking the path.
	add()
	waitUntil(t, "the first checkpoint", func() bool { return col.Shard(shard).Mnt.Health().Checkpoints >= 1 })
	if err := os.Mkdir(filepath.Join(collection.ShardDir(filepath.Join(root, "books"), shard), "labels.dict.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	add()
	waitUntil(t, "the shard's maintainer to suspend", func() bool {
		return col.Shard(shard).Mnt.Health().State == fix.MaintainSuspended
	})
	code, h := colHealth(t, cs)
	row := h.Collections["books"][shard]
	if code != http.StatusServiceUnavailable || h.Status != "degraded" {
		t.Errorf("/healthz = %d %q with a suspended shard, want 503 degraded", code, h.Status)
	}
	if row.Healthy || !strings.HasPrefix(row.Cause, "checkpointing suspended: ") {
		t.Errorf("suspended shard row = %+v, want unhealthy with a \"checkpointing suspended: …\" cause", row)
	}
	if other := h.Collections["books"][1-shard]; !other.Healthy {
		t.Errorf("the other shard turned unhealthy too: %+v", other)
	}
	if rec := cs.do(t, http.MethodGet, "/c/books/query?q=//title", "", ""); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"count": 2`) {
		t.Errorf("query against the suspended shard: status %d, body %s", rec.Code, rec.Body)
	}
}

package collection

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/fix-index/fix/fix"
)

// fastMaintenance is the opt-in tests use: evaluate triggers every 2ms,
// checkpoint any non-empty WAL, retry at once, no scrub. The loops live
// until the test ends (or the collection closes, whichever is first).
func fastMaintenance(t *testing.T) *Maintenance {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	return &Maintenance{Ctx: ctx, Config: fix.MaintainConfig{
		Interval:      2 * time.Millisecond,
		WALOps:        1,
		RetryBackoff:  time.Millisecond,
		ScrubInterval: -1,
	}}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// checkpoints reads shard i's maintainer checkpoint count.
func checkpoints(c *Collection, i int) int64 {
	return c.Shard(i).Mnt.Health().Checkpoints
}

// TestMaintainersCheckpointOnlyDirtyShards checks the per-shard policy
// in a collection: a shard whose WAL holds operations is checkpointed, a
// shard that received no writes never is (an idle collection costs zero
// fsyncs per tick), and the loops keep running afterwards. The
// collection is created under a context that is cancelled as soon as
// Create returns — an HTTP request's — and its maintainers must outlive
// it.
func TestMaintainersCheckpointOnlyDirtyShards(t *testing.T) {
	svc, err := OpenService(t.TempDir(), Options{Maintain: fastMaintenance(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	reqCtx, reqDone := context.WithCancel(context.Background())
	col, err := svc.Create(reqCtx, "skippy", Spec{Shards: 2})
	reqDone()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	dirty := doc(labelFor(t, 0, 2), 1)
	if _, err := col.Add(ctx, dirty); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "a checkpoint of the dirty shard", func() bool { return checkpoints(col, 0) >= 1 })
	if lag := col.Stats().IngestLag; lag != 0 {
		t.Fatalf("ingest lag = %d after the dirty shard's checkpoint", lag)
	}

	// Everything is clean now: ticks keep running, nothing checkpoints.
	base := checkpoints(col, 0)
	time.Sleep(60 * time.Millisecond)
	if n := checkpoints(col, 0); n != base {
		t.Errorf("checkpointed a clean shard (%d -> %d)", base, n)
	}
	if n := checkpoints(col, 1); n != 0 {
		t.Errorf("shard 1 never received a write but recorded %d checkpoints", n)
	}

	// The loop is still alive: the next write is absorbed too.
	if _, err := col.Add(ctx, dirty); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "a second checkpoint of the dirty shard", func() bool { return checkpoints(col, 0) > base })
	if lag := col.Stats().IngestLag; lag != 0 {
		t.Errorf("ingest lag = %d after the second checkpoint", lag)
	}
}

// TestMaintainersRebuildDegradedShard opens a collection whose shard 1
// has a corrupt B-tree: queries must answer exactly the whole time
// (scan fallback while degraded), and the shard's maintainer must
// rebuild it to healthy without anyone asking.
func TestMaintainersRebuildDegradedShard(t *testing.T) {
	const nshards = 2
	root := t.TempDir()
	dir := filepath.Join(root, "deg")
	ctx := context.Background()
	c, err := Create(ctx, dir, Spec{Name: "deg", Shards: nshards}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var docs []string
	for sh := 0; sh < nshards; sh++ {
		for i := 0; i < 8; i++ {
			docs = append(docs, doc(labelFor(t, sh, nshards), 3))
		}
	}
	if _, err := c.AddBatch(ctx, docs); err != nil {
		t.Fatal(err)
	}
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	btree := filepath.Join(ShardDir(dir, 1), "fix.btree")
	buf, err := os.ReadFile(btree)
	if err != nil {
		t.Fatal(err)
	}
	const pageSize = 4096
	if len(buf) <= pageSize+100 {
		t.Fatalf("shard 1 btree only %d bytes; corpus too small to corrupt", len(buf))
	}
	for off := pageSize + 100; off < len(buf); off += pageSize {
		buf[off] ^= 0xFF
	}
	if err := os.WriteFile(btree, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	svc, err := OpenService(root, Options{Maintain: fastMaintenance(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	col, release, err := svc.Acquire("deg")
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	sawDegraded := false
	waitFor(t, "the maintainer to rebuild the corrupt shard", func() bool {
		res, err := col.Query(ctx, "//item", QueryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != len(docs)*3 || res.Partial {
			t.Fatalf("count = %d (partial %v) mid-repair, want exactly %d", res.Count, res.Partial, len(docs)*3)
		}
		// On a loaded machine the 2 ms tick can rebuild the shard before
		// the first query runs; the rebuild count then says it was degraded.
		sawDegraded = sawDegraded || res.Degraded || col.Health()[1].Maintainer.AutoRebuilds >= 1
		return sawDegraded && !res.Degraded
	})
	for _, h := range col.Health() {
		if !h.Healthy {
			t.Errorf("shard %d still unhealthy after the auto-rebuild: %+v", h.Shard, h)
		}
	}
	// The rebuilt index is published before the loop counts the rebuild.
	waitFor(t, "shard 1's maintainer to count its auto-rebuild", func() bool {
		return col.Health()[1].Maintainer.AutoRebuilds >= 1
	})
}

// TestDropAndCloseStopMaintainers checks no maintenance loop survives
// its collection: after Drop, and after Service.Close, every shard's
// maintainer has exited (an exited loop answers ErrMaintainerClosed).
func TestDropAndCloseStopMaintainers(t *testing.T) {
	svc, err := OpenService(t.TempDir(), Options{Maintain: fastMaintenance(t)})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var mnts [2][]*fix.Maintainer
	for i, name := range []string{"dropped", "closed"} {
		col, err := svc.Create(ctx, name, Spec{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		for sh := 0; sh < col.NumShards(); sh++ {
			m := col.Shard(sh).Mnt
			if m == nil {
				t.Fatalf("%s shard %d has no maintainer under Options.Maintain", name, sh)
			}
			if err := m.Checkpoint(ctx); err != nil {
				t.Fatalf("%s shard %d maintainer not serving: %v", name, sh, err)
			}
			mnts[i] = append(mnts[i], m)
		}
	}
	exited := func(what string, ms []*fix.Maintainer) {
		t.Helper()
		for sh, m := range ms {
			if err := m.Checkpoint(ctx); !errors.Is(err, fix.ErrMaintainerClosed) {
				t.Errorf("%s: shard %d maintainer still running (Checkpoint = %v)", what, sh, err)
			}
		}
	}
	if err := svc.Drop("dropped"); err != nil {
		t.Fatal(err)
	}
	exited("after Drop", mnts[0])
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	exited("after Service.Close", mnts[1])
}

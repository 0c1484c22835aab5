package fix

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/fix-index/fix/internal/obs"
	"github.com/fix-index/fix/internal/xmltree"
)

// Online maintenance. Two concerns live here, both about keeping a
// long-running DB healthy without stopping the world:
//
//   - Checkpointing. Save/Checkpoint commit the index over the heap as it
//     stands, so that Open has nothing to catch up. Every group commit
//     has fsynced its own heap batch, so concurrent ingest stalls only for
//     the short critical section of the small-file commits. The Maintainer
//     automates the policy: checkpoint when the operations or heap bytes since the last
//     one pass a threshold or the last one ages past a deadline, retry
//     transient failures with jittered backoff, and after too many
//     consecutive failures suspend into a half-open probe state (serving
//     continues; the heap keeps every acknowledged write durable).
//
//   - Scrubbing. ScrubCtx walks the durable artifacts at a bounded rate
//     — B-tree pages read straight from disk, heap records and the CRC
//     of every heap batch — to find latent corruption while the cached,
//     in-memory copies still look fine. A damaged index degrades (queries
//     fall back to the exact scan) and the Maintainer schedules an
//     automatic rebuild.

// ErrMaintainerClosed reports an operation on a Maintainer whose
// background loop has exited (Close was called, or its context ended).
var ErrMaintainerClosed = errors.New("fix: maintainer closed")

// Checkpoint commits the index over the heap as it stands: the
// dictionary, the heap's open batch sealed and fsynced, then the
// shadow-committed index. It is an error on in-memory databases. It is
// CheckpointCtx with context.Background().
func (db *DB) Checkpoint() error { return db.CheckpointCtx(context.Background()) }

// CheckpointCtx is Checkpoint with cancellation, observed before the
// locked commit starts; once it starts it runs to completion. Every
// durable group commit has fsynced its own batch already, so the commit
// syncs at most the tail a bulk AddDocument left unsealed, and ingest
// stalls for the small-file commits, not for the heap.
func (db *DB) CheckpointCtx(ctx context.Context) error {
	if db.dir == "" {
		return fmt.Errorf("fix: Save on an in-memory database")
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := db.commitAll(); err != nil {
		return err
	}
	db.publish()
	return nil
}

// WALBytes returns the heap bytes written since the last checkpoint —
// the batches a crash right now would make Open catch the index up
// with, cleared by Checkpoint. It is 0 right after Open and for
// in-memory DBs.
func (db *DB) WALBytes() int64 {
	_, bytes := db.walStatus()
	return bytes
}

// LastCheckpoint returns when the last commit (Save, Checkpoint, or an
// index build's absorb) completed. Before any commit it is the DB's
// creation or open time, so age is always measured from a real baseline.
func (db *DB) LastCheckpoint() time.Time {
	return time.Unix(0, db.lastCheckpoint.Load())
}

// walStatus snapshots the operations and heap bytes since the last
// checkpoint together.
func (db *DB) walStatus() (ops int, bytes int64) {
	db.ingestMu.Lock()
	defer db.ingestMu.Unlock()
	if db.dir == "" {
		return 0, 0
	}
	return db.lagOps, db.store.Size() - db.ckptEnd
}

// ScrubConfig bounds a scrub pass. The zero value is ready to use.
type ScrubConfig struct {
	// Chunk is how many items (B-tree pages, then heap records) one
	// locked step verifies before releasing locks and pausing. 0 means
	// 128.
	Chunk int
	// Pause is the sleep between chunks — the I/O rate limiter. 0 means
	// 2ms; negative means no pause.
	Pause time.Duration
}

func (c *ScrubConfig) setDefaults() {
	if c.Chunk <= 0 {
		c.Chunk = 128
	}
	if c.Pause == 0 {
		c.Pause = 2 * time.Millisecond
	}
}

// ScrubReport summarizes one scrub pass: how much was verified and
// which durable artifacts failed verification.
type ScrubReport struct {
	// IndexPages is the number of B-tree pages verified against disk.
	IndexPages int
	// Records is the number of heap records structurally decoded.
	Records int
	// IndexDamaged reports on-disk B-tree corruption; the index has
	// been degraded (queries fall back to the exact scan) and a rebuild
	// repairs it.
	IndexDamaged bool
	// HeapDamaged reports a record that failed structural decoding or a
	// heap batch that fails its trailer's CRC. The heap is the primary
	// copy; this is data loss, not a cache problem, and only a backup
	// restores it.
	HeapDamaged bool
}

// Damaged reports whether the pass found any corruption.
func (r ScrubReport) Damaged() bool {
	return r.IndexDamaged || r.HeapDamaged
}

// ScrubCtx verifies the database's durable artifacts in bounded chunks:
// the index B-tree read directly from disk (not from the resident image,
// so latent bit rot is found while the pages in memory still look fine),
// and the sealed heap read front to back, every record structurally
// decoded and every batch checked against its trailer's CRC. The heap is
// read from its file, not through the queries' record cache or counters.
// Locks are released and cfg.Pause elapses between chunks, so queries and
// ingest interleave with the scan.
//
// A damaged index latches degraded health and republishes, exactly as
// if a query had tripped over the corruption. Everything found is also
// reported in the ScrubReport; the error is the join of the component
// failures (test with errors.Is against ErrCorrupt), nil for a clean
// pass, or ctx.Err() if cancelled mid-scan. It is Scrub with a caller
// context.
func (db *DB) ScrubCtx(ctx context.Context, cfg ScrubConfig) (ScrubReport, error) {
	cfg.setDefaults()
	var rep ScrubReport
	var errs []error
	pause := func() error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if cfg.Pause > 0 {
			time.Sleep(cfg.Pause)
		}
		return ctx.Err()
	}

	// Index: on-disk page sweep. ScrubDiskCtx latches degraded health on
	// corruption; generation health is frozen at publish time, so the
	// fix layer must republish for new pins to see the degradation. The
	// pointer is snapshotted once: a rebuild completing mid-scan swaps
	// db.index and rewrites the B-tree file in place, so the remainder
	// of this pass may see torn pages — any damage it reports then
	// latches on the superseded index object, and the next pass scrubs
	// the fresh one. (The Maintainer never overlaps the two; only an
	// explicit concurrent RebuildIndex hits this window.)
	if ix := db.indexRef(); ix != nil && ix.Health() == nil {
		n, err := ix.ScrubDiskCtx(ctx, cfg.Chunk, pause)
		rep.IndexPages = n
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				return rep, err // cancellation or a plain read error
			}
			rep.IndexDamaged = true
			errs = append(errs, err)
			db.publish()
		}
	}

	// Heap: the sealed batches, each record structurally decoded and each
	// batch checked against its trailer. A batch rolled back under the
	// walk ends it early, not as damage.
	var cancelled error
	n, err := db.store.Walk(func(rec uint32, buf []byte) error {
		if rec%uint32(cfg.Chunk) == 0 && rec > 0 {
			if cancelled = pause(); cancelled != nil {
				return cancelled
			}
		}
		_, used, err := xmltree.DecodeBinary(buf, db.dict)
		if err == nil && used != len(buf) {
			err = fmt.Errorf("record %d: %d trailing bytes after document", rec, len(buf)-used)
		}
		return err
	})
	rep.Records = n
	if cancelled != nil {
		return rep, cancelled
	}
	if err != nil {
		rep.HeapDamaged = true
		errs = append(errs, fmt.Errorf("%w: heap: %w", ErrCorrupt, err))
	}

	return rep, errors.Join(errs...)
}

// Scrub is ScrubCtx with context.Background().
func (db *DB) Scrub(cfg ScrubConfig) (ScrubReport, error) {
	return db.ScrubCtx(context.Background(), cfg)
}

// MaintainConfig tunes a Maintainer. The zero value is a sensible
// production policy; a negative value disables the individual trigger
// it configures.
type MaintainConfig struct {
	// Interval is the trigger-evaluation cadence. 0 means 1s.
	Interval time.Duration
	// WALOps checkpoints once this many operations were committed since
	// the last checkpoint (IngestLag). 0 means 1024; negative disables
	// the trigger.
	WALOps int
	// WALBytes checkpoints once this many heap bytes were written since
	// the last checkpoint (WALBytes). 0 means 4 MiB; negative disables
	// the trigger.
	WALBytes int64
	// MaxAge checkpoints once the last commit is this old and an
	// operation was committed since. 0 means 30s; negative disables the
	// trigger.
	MaxAge time.Duration
	// RetryBackoff is the initial delay after a failed checkpoint; it
	// doubles per consecutive failure (with ±25% jitter) up to
	// ProbeInterval. 0 means 100ms.
	RetryBackoff time.Duration
	// MaxFailures is how many consecutive checkpoint failures suspend
	// automatic checkpointing into the half-open probe state. 0 means 5.
	MaxFailures int
	// ProbeInterval is how often a suspended maintainer probes with one
	// checkpoint attempt; a success closes the circuit. 0 means 30s.
	ProbeInterval time.Duration
	// ScrubInterval schedules background scrub passes. 0 means 2m;
	// negative disables scrubbing.
	ScrubInterval time.Duration
	// ScrubChunk and ScrubPause bound each pass; see ScrubConfig.
	ScrubChunk int
	ScrubPause time.Duration
}

func (c *MaintainConfig) setDefaults() {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.WALOps == 0 {
		c.WALOps = 1024
	}
	if c.WALBytes == 0 {
		c.WALBytes = 4 << 20
	}
	if c.MaxAge == 0 {
		c.MaxAge = 30 * time.Second
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 100 * time.Millisecond
	}
	if c.MaxFailures <= 0 {
		c.MaxFailures = 5
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 30 * time.Second
	}
	if c.ScrubInterval == 0 {
		c.ScrubInterval = 2 * time.Minute
	}
	if c.ScrubChunk <= 0 {
		c.ScrubChunk = 128
	}
	if c.ScrubPause == 0 {
		c.ScrubPause = 2 * time.Millisecond
	}
}

// Maintainer state names, surfaced through MaintainerHealth.State.
const (
	// MaintainIdle: checkpointing is keeping up; no failures pending.
	MaintainIdle = "idle"
	// MaintainRetrying: the last checkpoint failed; the next attempt is
	// scheduled with backoff.
	MaintainRetrying = "retrying"
	// MaintainSuspended: MaxFailures consecutive failures; automatic
	// checkpointing is suspended and a probe runs every ProbeInterval
	// (half-open). Serving continues; the heap keeps every acknowledged
	// write durable.
	MaintainSuspended = "suspended"
)

// MaintainerHealth is a point-in-time snapshot of the maintenance loop,
// surfaced by fixserve's /healthz.
type MaintainerHealth struct {
	State               string    `json:"state"`
	ConsecutiveFailures int       `json:"consecutive_failures"`
	LastError           string    `json:"last_error,omitempty"`
	Checkpoints         int64     `json:"checkpoints"`
	CheckpointFailures  int64     `json:"checkpoint_failures"`
	ScrubPasses         int64     `json:"scrub_passes"`
	ScrubFindings       int64     `json:"scrub_findings"`
	AutoRebuilds        int64     `json:"auto_rebuilds"`
	LastScrub           time.Time `json:"last_scrub"`
	LastScrubError      string    `json:"last_scrub_error,omitempty"`
}

// Maintainer is a DB's background maintenance loop: threshold-driven
// checkpointing with failure backoff and suspension, periodic scrub
// passes, and automatic rebuild of a degraded index. One goroutine per
// Maintainer; Close stops it. Start one per DB at most.
type Maintainer struct {
	db  *DB
	cfg MaintainConfig
	ctx context.Context // loop context; immutable after StartMaintainer

	kick   chan chan error // explicit checkpoint requests
	stop   chan struct{}   // closed by Close
	exited chan struct{}   // closed when the loop returns

	closeOnce sync.Once

	mu sync.Mutex // lockcheck: leaf
	h  MaintainerHealth
	// guarded by mu: scheduling state the loop and Health share.
	notBefore        time.Time // no automatic checkpoint before this (backoff)
	nextProbe        time.Time // next half-open probe while suspended
	nextScrub        time.Time // next scheduled scrub pass
	rebuildNotBefore time.Time // auto-rebuild backoff
	rebuildFailures  int
}

// StartMaintainer starts the background maintenance loop over db. It is
// an error on an in-memory database (there is nothing to checkpoint).
// The loop exits when ctx ends or Close is called; Close also waits for
// it.
func (db *DB) StartMaintainer(ctx context.Context, cfg MaintainConfig) (*Maintainer, error) {
	if db.dir == "" {
		return nil, fmt.Errorf("fix: maintainer on an in-memory database")
	}
	cfg.setDefaults()
	m := &Maintainer{
		db:     db,
		cfg:    cfg,
		ctx:    ctx,
		kick:   make(chan chan error),
		stop:   make(chan struct{}),
		exited: make(chan struct{}),
	}
	m.h.State = MaintainIdle
	if cfg.ScrubInterval > 0 {
		m.nextScrub = time.Now().Add(cfg.ScrubInterval)
	}
	go m.run()
	return m, nil
}

// Close stops the maintenance loop and waits for it to exit. It never
// checkpoints on the way out — callers that want a final checkpoint run
// one explicitly (fixserve's shutdown does).
func (m *Maintainer) Close() {
	m.closeOnce.Do(func() { close(m.stop) })
	<-m.exited
}

// Checkpoint asks the loop to checkpoint now and waits for the result.
// It works in every state — during suspension it acts as a manual
// probe. fixserve's POST /admin/checkpoint lands here.
func (m *Maintainer) Checkpoint(ctx context.Context) error {
	reply := make(chan error, 1)
	select {
	case m.kick <- reply:
	case <-ctx.Done():
		return ctx.Err()
	case <-m.exited:
		return ErrMaintainerClosed
	}
	select {
	case err := <-reply:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Health snapshots the maintenance loop's state.
func (m *Maintainer) Health() MaintainerHealth {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.h
}

// run is the maintenance loop: a single goroutine evaluating triggers
// every cfg.Interval and serving explicit checkpoint requests. All
// actual work (checkpoint, scrub, rebuild) runs on this goroutine, so
// maintenance operations never overlap each other.
func (m *Maintainer) run() {
	defer close(m.exited)
	ticker := time.NewTicker(m.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-m.ctx.Done():
			return
		case reply := <-m.kick:
			reply <- m.checkpoint()
		case <-ticker.C:
			m.tick(time.Now())
		}
	}
}

// tick evaluates the maintenance triggers once.
func (m *Maintainer) tick(now time.Time) {
	m.mu.Lock()
	state := m.h.State
	notBefore, nextProbe := m.notBefore, m.nextProbe
	nextScrub := m.nextScrub
	rebuildAt := m.rebuildNotBefore
	m.mu.Unlock()

	// A degraded index is rebuilt automatically, with its own doubling
	// backoff so a persistently failing rebuild cannot spin. Repair comes
	// before the checkpoint triggers: a degraded index refuses to be
	// saved, and a successful rebuild checkpoints itself.
	if m.db.IndexHealth() != nil && !now.Before(rebuildAt) {
		m.rebuild()
	}

	switch state {
	case MaintainSuspended:
		// Half-open: one probe attempt per ProbeInterval; a success
		// closes the circuit (checkpoint() resets the state).
		if !now.Before(nextProbe) {
			_ = m.checkpoint()
		}
	default:
		if now.Before(notBefore) {
			break // backing off after a failure
		}
		ops, bytes := m.db.walStatus()
		trigger := (m.cfg.WALOps > 0 && ops >= m.cfg.WALOps) ||
			(m.cfg.WALBytes > 0 && bytes >= m.cfg.WALBytes) ||
			(m.cfg.MaxAge > 0 && ops > 0 && now.Sub(m.db.LastCheckpoint()) >= m.cfg.MaxAge)
		if trigger {
			_ = m.checkpoint()
		}
	}

	if m.cfg.ScrubInterval > 0 && !nextScrub.IsZero() && !now.Before(nextScrub) {
		m.scrub()
		m.mu.Lock()
		m.nextScrub = time.Now().Add(m.cfg.ScrubInterval)
		m.mu.Unlock()
	}
}

// checkpoint runs one checkpoint attempt and updates the failure state
// machine: success resets everything to idle; failures back off with
// jittered doubling until MaxFailures suspends automatic attempts.
func (m *Maintainer) checkpoint() error {
	err := m.db.CheckpointCtx(m.ctx)
	obs.Default().ObserveCheckpoint(err == nil)
	m.mu.Lock()
	defer m.mu.Unlock()
	if err == nil {
		m.h.State = MaintainIdle
		m.h.ConsecutiveFailures = 0
		m.h.LastError = ""
		m.h.Checkpoints++
		m.notBefore = time.Time{}
		return nil
	}
	m.h.ConsecutiveFailures++
	m.h.LastError = err.Error()
	m.h.CheckpointFailures++
	if m.h.ConsecutiveFailures >= m.cfg.MaxFailures {
		m.h.State = MaintainSuspended
		m.nextProbe = time.Now().Add(m.cfg.ProbeInterval)
	} else {
		m.h.State = MaintainRetrying
		m.notBefore = time.Now().Add(backoff(m.cfg.RetryBackoff, m.h.ConsecutiveFailures-1, m.cfg.ProbeInterval))
	}
	return err
}

// scrub runs one bounded scrub pass; a damaged index it finds is
// already degraded, and the rebuild trigger picks it up next tick.
func (m *Maintainer) scrub() {
	rep, err := m.db.ScrubCtx(m.ctx, ScrubConfig{Chunk: m.cfg.ScrubChunk, Pause: m.cfg.ScrubPause})
	if m.ctx.Err() != nil {
		return // cancelled mid-pass; not a finding
	}
	obs.Default().ObserveScrub(rep.Damaged())
	m.mu.Lock()
	defer m.mu.Unlock()
	m.h.ScrubPasses++
	m.h.LastScrub = time.Now()
	if err != nil {
		m.h.ScrubFindings++
		m.h.LastScrubError = err.Error()
	} else {
		m.h.LastScrubError = ""
	}
}

// rebuild attempts an automatic RebuildIndex of a degraded index.
func (m *Maintainer) rebuild() {
	err := m.db.RebuildIndexCtx(m.ctx)
	if m.ctx.Err() != nil {
		return
	}
	obs.Default().ObserveAutoRebuild(err == nil)
	m.mu.Lock()
	defer m.mu.Unlock()
	if err == nil {
		m.h.AutoRebuilds++
		m.rebuildFailures = 0
		m.rebuildNotBefore = time.Time{}
		return
	}
	m.rebuildFailures++
	m.rebuildNotBefore = time.Now().Add(backoff(m.cfg.RetryBackoff, m.rebuildFailures-1, m.cfg.ProbeInterval))
}

// backoff returns base<<n with ±25% jitter, capped at max.
func backoff(base time.Duration, n int, max time.Duration) time.Duration {
	d := base
	for i := 0; i < n && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	// Jitter spreads retries from many shards so they never thundering-
	// herd a recovering disk.
	j := time.Duration(rand.Int63n(int64(d)/2+1)) - d/4
	return d + j
}

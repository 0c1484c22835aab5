// Package collection promotes the one-DB-per-process fix engine into a
// sharded, multi-tenant serving layer: a named collection is a set of
// shards, each an independent fix.DB with its own FIX index, record heap
// and generation chain. Documents are routed to shards by the hash of
// their root label, so every document with the same root lands in the
// same shard; queries whose first step pins the root label probe only
// that shard, and everything else scatter-gathers across all shards in
// parallel with per-shard deadlines and an order-stable merge.
//
// The design instantiates the paper's cost model (FIX §6): total query
// cost is the probe cost over the B-tree plus the refinement cost over
// the candidates, and both terms decompose over disjoint document
// partitions — a shard's probe scans a B-tree covering only its own
// documents, and refinement I/O touches only its own heap. Partitioning
// by root label additionally bounds per-probe work the way the paper's
// root-label key prefix does inside a single tree: a shard's tree only
// holds entries whose root labels hash to it, so the eigenvalue range
// scan never visits entries a root-label-pinned query could not match.
//
// This package is deliberately *above* the public fix API (the fixvet
// depcheck service-layer exemption): it composes whole databases and
// adds distribution concerns — routing, fan-out, partial results —
// without reaching into engine internals. Background maintenance is the
// engine's own: each shard runs a fix.Maintainer when the opener asks
// for it (Options.Maintain).
package collection

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/fix-index/fix/fix"
	"github.com/fix-index/fix/internal/obs"
	"github.com/fix-index/fix/internal/par"
)

// ManifestName is the file that marks a directory as a collection and
// records its immutable spec.
const ManifestName = "collection.json"

// ErrNoManifest reports that a directory holds no collection manifest.
var ErrNoManifest = errors.New("collection: no collection.json manifest")

// Spec is the persisted shape of a collection: everything that must
// survive a restart and cannot change after creation (resharding is a
// rebuild-the-world operation, out of scope here). The index build
// options are per-shard; runtime tuning (deadlines, queue depths) lives
// in Options and comes from server flags at open time.
type Spec struct {
	// Name is the collection's registry key; it doubles as the directory
	// name, so it is restricted to [A-Za-z0-9_-], max 64 bytes.
	Name string `json:"name"`
	// Shards is the fixed shard count. Documents are placed by
	// hash(root label) mod Shards.
	Shards int `json:"shards"`
	// Weight is the per-tenant admission weight: servers charge each of
	// this collection's requests Weight units at the shared admission
	// gate, so a heavy tenant can be made to consume its capacity share
	// faster. 0 means 1.
	Weight int `json:"weight"`
	// DepthLimit, Values and Workers are the fix.IndexOptions subset the
	// shards build their indexes with.
	DepthLimit int  `json:"depth_limit,omitempty"`
	Values     bool `json:"values,omitempty"`
	Workers    int  `json:"workers,omitempty"`
}

// normalize fills defaults and validates the spec.
func (s *Spec) normalize() error {
	if err := ValidateName(s.Name); err != nil {
		return err
	}
	if s.Shards <= 0 {
		s.Shards = 1
	}
	if s.Shards > MaxShards {
		return fmt.Errorf("collection: %d shards exceeds the maximum %d", s.Shards, MaxShards)
	}
	if s.Weight <= 0 {
		s.Weight = 1
	}
	return nil
}

// MaxShards bounds a collection's shard count: shard IDs live in the
// high half of a 64-bit global document ID, and fan-out beyond a few
// dozen shards per process costs more in scatter overhead than the
// partitioned probes save.
const MaxShards = 256

// ValidateName enforces the collection-name alphabet: 1–64 bytes of
// [A-Za-z0-9_-]. Names become directory components and URL path
// segments, so nothing richer is allowed.
func ValidateName(name string) error {
	if name == "" || len(name) > 64 {
		return fmt.Errorf("collection: name must be 1-64 characters")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '-':
		default:
			return fmt.Errorf("collection: name %q contains %q; allowed are letters, digits, '_' and '-'", name, c)
		}
	}
	return nil
}

// Options is the runtime (non-persisted) tuning of an open collection:
// query governance, ingest batching, the slow-query sink and background
// maintenance. The zero value imposes no limits, uses the fix ingest
// defaults and starts no maintenance goroutine.
type Options struct {
	// ShardTimeout is the per-shard query deadline: each shard's probe +
	// refinement runs under its own context.WithTimeout of this length,
	// started when that shard begins, so time a shard waits for a CPU
	// while its siblings compute does not count against it. A scatter
	// runs its n shards on W = min(n, GOMAXPROCS) goroutines (W = 1, the
	// caller's, on one CPU or for fewer than four shards), so the
	// collection-level wall time is at most ⌈n/W⌉ shard deadlines. A
	// shard that misses it is reported in the result's shard trace and
	// the query returns partial results. 0 disables the per-shard
	// deadline (the request context still applies).
	ShardTimeout time.Duration
	// MaxRefineNodes, MaxCandidates and MaxResults are per-shard work
	// budgets, passed through as fix.Limits.
	MaxRefineNodes int64
	MaxCandidates  int
	MaxResults     int
	// Ingest tunes each shard's group-commit ingester.
	Ingest fix.IngestConfig
	// SlowQueryThreshold and OnSlowQuery install a per-shard slow-query
	// log; traces delivered to OnSlowQuery carry the collection name and
	// shard ID, so one sink can attribute hot shards across collections.
	SlowQueryThreshold time.Duration
	OnSlowQuery        func(fix.QueryTrace)
	// Maintain, when non-nil, gives every shard its own fix.Maintainer
	// (threshold checkpoints, scrub, auto-rebuild of a degraded index),
	// started when the shard is wired and stopped by Close. A serving
	// process sets it once on the Options it hands OpenService, so
	// collections created later inherit it. nil (library use: fixindex,
	// bulk loaders) starts nothing.
	Maintain *Maintenance
}

// Maintenance is the background-maintenance opt-in: the policy every
// shard's maintainer runs, and the context that bounds their loops. The
// context is the process's, not a request's — a collection created over
// HTTP must keep its maintainers after the request returns.
type Maintenance struct {
	Ctx    context.Context
	Config fix.MaintainConfig
}

// limits converts the options into per-shard query limits.
func (o Options) limits() fix.Limits {
	return fix.Limits{
		Timeout:        o.ShardTimeout,
		MaxRefineNodes: o.MaxRefineNodes,
		MaxCandidates:  o.MaxCandidates,
		MaxResults:     o.MaxResults,
	}
}

// Shard is one partition of a collection: an independent fix.DB, the
// group-commit ingester feeding it and, when Options.Maintain is set,
// its background maintainer. All are owned by the Collection; tests may
// reach through DB for fault injection, servers should not.
type Shard struct {
	// ID is the shard's zero-based index; it is the high half of every
	// global document ID the shard issues. // immutable after publish
	ID int
	// DB is the shard's database. // immutable after publish
	DB *fix.DB
	// Ing is the shard's ingester. // immutable after publish
	Ing *fix.Ingester
	// Mnt is the shard's maintainer; nil without Options.Maintain.
	// // immutable after publish
	Mnt *fix.Maintainer
}

// Collection is a set of shards serving one named document corpus. All
// methods are safe for concurrent use; queries are lock-free end to end
// (each shard query pins a generation), and ingest serializes only
// inside each shard's group committer.
type Collection struct {
	spec   Spec
	dir    string
	opts   Options
	shards []*Shard

	// testShardStall, when set by tests, runs at the start of every
	// per-shard pass — the count, then the documents when requested — the
	// seam that makes "one shard past its deadline" deterministic.
	testShardStall func(shard int)
}

// GlobalID packs a shard ID and a shard-local record number into the
// collection-wide document ID: shard in the high 32 bits, record in the
// low 32. IDs are what /c/{name}/ingest returns and what deletes take.
func GlobalID(shard int, rec uint32) uint64 {
	return uint64(shard)<<32 | uint64(rec)
}

// SplitID unpacks a global document ID into shard and record.
func SplitID(id uint64) (shard int, rec uint32) {
	return int(id >> 32), uint32(id)
}

// Create creates a new collection under dir (the collection's own
// directory, typically <root>/<name>): the manifest, one subdirectory
// per shard, and an empty index per shard so streaming ingest maintains
// indexes incrementally from the first document. The directory must not
// already hold a collection.
func Create(ctx context.Context, dir string, spec Spec, opts Options) (*Collection, error) {
	if err := spec.normalize(); err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(dir, ManifestName)); err == nil {
		return nil, fmt.Errorf("collection: %s already holds a collection", dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c := &Collection{spec: spec, dir: dir, opts: opts}
	for i := 0; i < spec.Shards; i++ {
		db, err := fix.Create(c.shardDir(i))
		if err != nil {
			c.closeShards()
			return nil, fmt.Errorf("collection: creating shard %d: %w", i, err)
		}
		if err := db.BuildIndexCtx(ctx, spec.indexOptions()); err != nil {
			_ = db.Close()
			c.closeShards()
			return nil, fmt.Errorf("collection: building shard %d index: %w", i, err)
		}
		if err := db.Save(); err != nil {
			_ = db.Close()
			c.closeShards()
			return nil, fmt.Errorf("collection: saving shard %d: %w", i, err)
		}
		if err := c.addShard(i, db); err != nil {
			c.closeShards()
			return nil, err
		}
	}
	if err := writeManifest(dir, spec); err != nil {
		c.closeShards()
		return nil, err
	}
	return c, nil
}

// Open opens an existing collection directory, each shard with fix.Open,
// so every acknowledged write is visible.
func Open(dir string, opts Options) (*Collection, error) {
	spec, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	c := &Collection{spec: spec, dir: dir, opts: opts}
	for i := 0; i < spec.Shards; i++ {
		db, err := fix.Open(c.shardDir(i))
		if err != nil {
			c.closeShards()
			return nil, fmt.Errorf("collection: opening shard %d: %w", i, err)
		}
		if err := c.addShard(i, db); err != nil {
			c.closeShards()
			return nil, err
		}
	}
	return c, nil
}

// addShard wires one opened DB into the collection: per-shard options
// (slow-query attribution), the shard's maintainer when the collection
// opted in, and its ingester. On error the DB is closed.
func (c *Collection) addShard(id int, db *fix.DB) error {
	dbOpts := fix.Options{
		Limits: c.opts.limits(),
	}
	if c.opts.SlowQueryThreshold > 0 && c.opts.OnSlowQuery != nil {
		name, sink := c.spec.Name, c.opts.OnSlowQuery
		dbOpts.SlowQueryThreshold = c.opts.SlowQueryThreshold
		dbOpts.OnSlowQuery = func(t fix.QueryTrace) {
			t.Collection = name
			t.Shard = id
			sink(t)
		}
	}
	db.SetOptions(dbOpts)
	var mnt *fix.Maintainer
	if mt := c.opts.Maintain; mt != nil {
		var err error
		if mnt, err = db.StartMaintainer(mt.Ctx, mt.Config); err != nil {
			_ = db.Close()
			return fmt.Errorf("collection: shard %d: %w", id, err)
		}
	}
	c.shards = append(c.shards, &Shard{ID: id, DB: db, Ing: db.NewIngester(c.opts.Ingest), Mnt: mnt})
	return nil
}

// indexOptions maps the persisted spec onto the fix build options.
func (s Spec) indexOptions() fix.IndexOptions {
	return fix.IndexOptions{DepthLimit: s.DepthLimit, Values: s.Values, Workers: s.Workers}
}

// shardDir returns shard i's directory.
func (c *Collection) shardDir(i int) string {
	return ShardDir(c.dir, i)
}

// ShardDir returns shard i's directory under a collection root. Tools
// that walk shards without opening the whole collection (fixindex
// verify/repair) use it to address individual shard databases.
func ShardDir(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d", i))
}

// writeManifest writes collection.json atomically (temp + fsync +
// rename), the same crash-safety bar as every other metadata file.
func writeManifest(dir string, spec Spec) error {
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, ManifestName)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		_ = f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// ReadManifest reads and validates a collection manifest from dir. A
// directory without one returns ErrNoManifest (test with errors.Is) so
// callers can distinguish "not a collection" from a broken manifest.
func ReadManifest(dir string) (Spec, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		if os.IsNotExist(err) {
			return Spec{}, fmt.Errorf("%w: %s", ErrNoManifest, dir)
		}
		return Spec{}, err
	}
	var spec Spec
	if err := json.Unmarshal(data, &spec); err != nil {
		return Spec{}, fmt.Errorf("collection: reading manifest in %s: %w", dir, err)
	}
	if err := spec.normalize(); err != nil {
		return Spec{}, fmt.Errorf("collection: manifest in %s: %w", dir, err)
	}
	return spec, nil
}

// Name returns the collection's registry key.
func (c *Collection) Name() string { return c.spec.Name }

// Spec returns the persisted spec (post-normalization).
func (c *Collection) Spec() Spec { return c.spec }

// NumShards returns the shard count.
func (c *Collection) NumShards() int { return len(c.shards) }

// Shard returns shard i; it panics on an out-of-range index (shard IDs
// come from SplitID or iteration, both bounded).
func (c *Collection) Shard(i int) *Shard { return c.shards[i] }

// Weight returns the per-tenant admission weight (≥ 1).
func (c *Collection) Weight() int { return c.spec.Weight }

// NumDocuments sums live (non-tombstoned) documents across shards.
func (c *Collection) NumDocuments() int {
	n := 0
	for _, s := range c.shards {
		n += s.DB.NumDocuments() - s.DB.DeletedDocuments()
	}
	return n
}

// Op is one operation of a submission to a collection: a fix operation
// and the shard it goes to. AddOp and DeleteOp make them.
type Op struct {
	Shard int
	Op    fix.Op
}

// AddOp parses doc — once, under the collection's parse limits, which are
// uniform across shards — into the add operation of a submission, routed
// by the parsed root label. A server makes every operation of a request
// this way before it submits any, so a malformed document cannot leave
// the earlier half of the request, or another shard's list, committed.
func (c *Collection) AddOp(doc string) (Op, error) {
	op, err := c.shards[0].DB.AddOp(doc)
	if err != nil {
		return Op{}, err
	}
	return Op{Shard: ShardForLabel(op.RootLabel(), len(c.shards)), Op: op}, nil
}

// DeleteOp returns the operation that deletes the document with the
// given global ID from the shard the ID names.
func DeleteOp(id uint64) Op {
	shard, rec := SplitID(id)
	return Op{Shard: shard, Op: fix.DeleteOp(rec)}
}

// Apply commits a request's operations — adds and deletes in the
// caller's order — and returns, per operation, the global ID of the
// document it added or deleted. The operations are split by shard
// keeping their order, and every touched shard gets its list as one
// submission to its ingester (fix.Ingester.Apply): one heap batch, one
// publish, all or nothing on that shard, and a delete may name a
// document an earlier operation of the request added. An operation
// naming a shard the collection does not have — a delete of a foreign ID
// — fails the call with fix.ErrUnknownDocument before any shard is
// submitted. Across shards a request is not a distributed transaction:
// the first commit error fails the call, and other shards' submissions
// may still have committed.
func (c *Collection) Apply(ctx context.Context, ops []Op) ([]uint64, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	perShard := make([][]fix.Op, len(c.shards))
	pos := make([]int, len(ops)) // of op i within its shard's list
	touched := 0
	for i, op := range ops {
		if op.Shard < 0 || op.Shard >= len(c.shards) {
			return nil, fmt.Errorf("%w: operation %d names shard %d of %d", fix.ErrUnknownDocument, i, op.Shard, len(c.shards))
		}
		if len(perShard[op.Shard]) == 0 {
			touched++
		}
		pos[i] = len(perShard[op.Shard])
		perShard[op.Shard] = append(perShard[op.Shard], op.Op)
	}
	recs := make([][]uint32, len(c.shards))
	submit := func(i int) (err error) {
		if recs[i], err = c.shards[i].Ing.Apply(ctx, perShard[i]); err != nil {
			err = fmt.Errorf("collection: shard %d: %w", i, err)
		}
		return err
	}
	var err error
	if touched == 1 {
		err = submit(ops[0].Shard)
	} else {
		// Workers sized by shards, not CPUs (unlike Query's scatter): a
		// submission waits on its shard's heap fsync, and those waits
		// overlap even on one CPU.
		err = par.Do(ctx, len(c.shards), len(c.shards), submit)
	}
	if err != nil {
		return nil, err
	}
	ids := make([]uint64, len(ops))
	deletes := 0
	for i, op := range ops {
		ids[i] = GlobalID(op.Shard, recs[op.Shard][pos[i]])
		if op.Op.RootLabel() == "" {
			deletes++
		}
	}
	obs.Default().Collection(c.spec.Name).ObserveCollectionIngest(len(ops)-deletes, deletes)
	return ids, nil
}

// AddBatch parses and routes docs and commits them through Apply; the
// returned global IDs are in argument order.
func (c *Collection) AddBatch(ctx context.Context, docs []string) ([]uint64, error) {
	ops := make([]Op, len(docs))
	for i, doc := range docs {
		var err error
		if ops[i], err = c.AddOp(doc); err != nil {
			return nil, fmt.Errorf("collection: document %d: %w", i, err)
		}
	}
	return c.Apply(ctx, ops)
}

// Add routes one document; see AddBatch.
func (c *Collection) Add(ctx context.Context, doc string) (uint64, error) {
	ids, err := c.AddBatch(ctx, []string{doc})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// Delete durably deletes the document with the given global ID through
// its shard's ingester. An ID naming a shard the collection does not
// have, or a record the shard never assigned, returns an error wrapping
// fix.ErrUnknownDocument.
func (c *Collection) Delete(ctx context.Context, id uint64) error {
	_, err := c.Apply(ctx, []Op{DeleteOp(id)})
	return err
}

// Document fetches a stored document by global ID.
func (c *Collection) Document(id uint64) (string, error) {
	shard, rec := SplitID(id)
	if shard < 0 || shard >= len(c.shards) {
		return "", fmt.Errorf("%w: id %d names shard %d of %d", fix.ErrUnknownDocument, id, shard, len(c.shards))
	}
	return c.shards[shard].DB.Document(rec)
}

// Flush blocks until every shard's queued ingest operations have
// committed. Like Apply it sizes its workers by shards: each waits on a
// commit's fsync.
func (c *Collection) Flush(ctx context.Context) error {
	return par.Do(ctx, len(c.shards), len(c.shards), func(i int) error {
		return c.shards[i].Ing.Flush(ctx)
	})
}

// Save checkpoints each shard. Shards save independently; the first
// error is returned but the remaining shards still save (a full disk on
// one shard must not grow every other shard's catch-up window).
func (c *Collection) Save() error {
	var first error
	for _, s := range c.shards {
		if err := s.DB.Save(); err != nil && first == nil {
			first = fmt.Errorf("collection: saving shard %d: %w", s.ID, err)
		}
	}
	return first
}

// Close stops the maintainers (waiting out a running checkpoint, scrub
// or rebuild), then the ingesters (draining queued operations), and
// closes every shard. It does not Save; acknowledged-but-unsaved
// operations are durable in each shard's heap.
func (c *Collection) Close() error {
	c.stopMaintainers()
	var first error
	for _, s := range c.shards {
		if err := s.Ing.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, s := range c.shards {
		if err := s.DB.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// stopMaintainers stops every shard's maintenance loop and waits for it
// to exit; a no-op for a collection opened without Options.Maintain.
func (c *Collection) stopMaintainers() {
	for _, s := range c.shards {
		if s.Mnt != nil {
			s.Mnt.Close()
		}
	}
}

// closeShards releases partially constructed shards on a failed
// Create/Open.
func (c *Collection) closeShards() {
	c.stopMaintainers()
	for _, s := range c.shards {
		_ = s.Ing.Close()
		_ = s.DB.Close()
	}
	c.shards = nil
}

// ShardHealth is one database's health block: a shard's row in Health,
// and the body of fixserve's single-index /healthz. IngestLag counts
// operations committed since the last checkpoint (caught up, not lost,
// on a crash); IngestQueue counts submissions still waiting for their
// group commit; WALBytes (the heap bytes since the checkpoint) and
// LastCheckpointAge size the catch-up window a crash right now would
// cost. Maintainer carries the background checkpointer's state machine
// (idle / retrying / suspended) and scrub history when one is running.
type ShardHealth struct {
	Shard             int                   `json:"shard"`
	Generation        uint64                `json:"generation"`
	Documents         int                   `json:"documents"`
	Deleted           int                   `json:"deleted"`
	Entries           int                   `json:"index_entries"`
	IngestLag         int                   `json:"ingest_lag"`
	IngestQueue       int                   `json:"ingest_queue"`
	WALBytes          int64                 `json:"wal_bytes"`
	LastCheckpointAge float64               `json:"last_checkpoint_age_seconds"`
	Maintainer        *fix.MaintainerHealth `json:"maintainer,omitempty"`
	Healthy           bool                  `json:"healthy"`
	Cause             string                `json:"cause,omitempty"`
}

// HealthOf fills the health block of one database: db's counters, the
// depth of the ingest queue feeding it, and mnt's state when a
// maintainer is running (nil otherwise). Healthy means "at full speed":
// a degraded index still answers exactly through the scan fallback, and
// a suspended checkpointer still serves every acknowledged write, but
// the first is slow and the second's catch-up window grows without
// bound, so either clears Healthy and names its cause.
func HealthOf(db *fix.DB, ingestQueue int, mnt *fix.Maintainer) ShardHealth {
	h := ShardHealth{
		Generation:        db.GenerationID(),
		Documents:         db.NumDocuments(),
		Deleted:           db.DeletedDocuments(),
		Entries:           db.IndexEntries(),
		IngestLag:         db.IngestLag(),
		IngestQueue:       ingestQueue,
		WALBytes:          db.WALBytes(),
		LastCheckpointAge: time.Since(db.LastCheckpoint()).Seconds(),
		Healthy:           true,
	}
	if mnt != nil {
		mh := mnt.Health()
		h.Maintainer = &mh
		if mh.State == fix.MaintainSuspended {
			h.Healthy = false
			h.Cause = "checkpointing suspended: " + mh.LastError
		}
	}
	if err := db.IndexHealth(); err != nil {
		h.Healthy = false
		h.Cause = err.Error()
	}
	return h
}

// Health reports per-shard health and generation, one HealthOf block
// per shard.
func (c *Collection) Health() []ShardHealth {
	out := make([]ShardHealth, len(c.shards))
	for i, s := range c.shards {
		out[i] = HealthOf(s.DB, s.Ing.QueueLen(), s.Mnt)
		out[i].Shard = s.ID
	}
	return out
}

// Stats is the /c/{name}/stats payload: the spec plus aggregated and
// per-shard counts.
type Stats struct {
	Spec      Spec          `json:"spec"`
	Documents int           `json:"documents"`
	Deleted   int           `json:"deleted"`
	Entries   int           `json:"index_entries"`
	IngestLag int           `json:"ingest_lag"`
	Shards    []ShardHealth `json:"shards"`
}

// Stats aggregates Health into the stats payload.
func (c *Collection) Stats() Stats {
	st := Stats{Spec: c.spec, Shards: c.Health()}
	for _, h := range st.Shards {
		st.Documents += h.Documents - h.Deleted
		st.Deleted += h.Deleted
		st.Entries += h.Entries
		st.IngestLag += h.IngestLag
	}
	return st
}

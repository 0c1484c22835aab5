// Command fixserve serves queries and metrics for a FIX database over
// HTTP. It is the operational face of the observability and resource-
// governance layers: every query can return its full trace, the
// process-wide metrics registry is exported as JSON and expvar, slow
// queries are logged to stderr, and the runtime profiler can be mounted
// for live debugging.
//
// Admission control bounds concurrent query work with a weighted
// semaphore: requests that cannot be admitted within -queue-wait are
// shed with 429 and a Retry-After header. Each admitted query runs
// under -request-timeout, and a circuit breaker watches for internal
// index faults — after -breaker-faults consecutive failures it routes
// queries to the exact scan fallback until a recovery probe succeeds.
// SIGINT/SIGTERM drain in-flight requests before exiting.
//
// Writes arrive through POST /ingest and run through a shared group-
// commit ingester: each request is one submission in a bounded queue
// (-ingest-queue), and a committer that never waits takes whatever is
// queued — up to -ingest-batch operations — into one heap batch and one
// fsync. A full queue sheds with 429 + Retry-After. Acknowledged writes
// survive a crash: the heap is the log, and a restart brings the index
// up to it.
//
// Every database — the single index, or each shard of each collection
// — runs one background fix.Maintainer under the same policy: it
// commits the index over the heap in chunked checkpoints once the
// writes since the last one cross -checkpoint-ops/-checkpoint-bytes or
// it ages past
// -checkpoint-age, backs off and suspends on persistent failures,
// scrubs the durable files every -scrub-interval (auto-rebuilding a
// corrupt or degraded index), and surfaces its state on /healthz. In
// single-index mode POST /admin/checkpoint forces a checkpoint. On
// SIGINT/SIGTERM both modes drain requests, stop the maintainers, flush
// the ingest queues, run a final Save and close.
//
// fixserve runs in one of two modes. Single-index mode (-db DIR)
// serves one database. Collection mode (-collections DIR) serves a
// registry of named, sharded collections: documents route to shards by
// root label, queries scatter-gather across shards with per-shard
// deadlines (-shard-timeout) and order-stable merge, and each request
// is charged its collection's admission weight. docs/SERVING.md is the
// complete operations reference for both modes.
//
// Usage:
//
//	fixserve -db /tmp/xmarkdb -addr :8080 [-slow 50ms] [-pprof]
//	fixserve -collections /srv/fix -addr :8080 [-shard-timeout 2s]
//
// Single-index endpoints:
//
//	GET /query?q=XPATH[&trace=1]   run a query; JSON result, trace opt-in
//	POST /ingest                   durable writes: raw XML body, or NDJSON add/delete ops
//	POST /admin/checkpoint         force a checkpoint now
//	GET /metrics                   fix.DB.Metrics() as JSON
//	GET /debug/vars                expvar (includes the "fix" variable)
//	GET /debug/pprof/              net/http/pprof (only with -pprof)
//	GET /healthz                   200 if the index is healthy, 503 + JSON cause if degraded
//	GET /readyz                    200 if the admission gate has room, 503 when saturated
//
// Collection-mode endpoints (see docs/SERVING.md for bodies):
//
//	GET /c/{collection}/query?q=XPATH[&trace=1]   scatter-gather query over the collection's shards
//	POST /c/{collection}/ingest                   routed durable writes (global IDs)
//	GET /c/{collection}/stats                     spec + per-shard document/index/lag counts
//	GET /collections                              list collections with stats
//	POST /collections                             create a collection (JSON spec)
//	DELETE /collections/{collection}              drop a collection and its data
//	GET /metrics, /debug/vars, /healthz, /readyz  as above; /healthz aggregates every shard
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/fix-index/fix/fix"
	"github.com/fix-index/fix/internal/collection"
	"github.com/fix-index/fix/internal/obs"
)

func main() {
	dbdir := flag.String("db", "", "database directory (single-index mode)")
	colRoot := flag.String("collections", "", "collections root directory (collection mode; mutually exclusive with -db)")
	shardTimeout := flag.Duration("shard-timeout", 0, "per-shard query deadline in collection mode (0 disables)")
	addr := flag.String("addr", ":8080", "listen address")
	slow := flag.Duration("slow", 0, "slow-query log threshold (0 disables)")
	withPprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	maxInFlight := flag.Int64("max-inflight", 64, "admission gate capacity in weight units (traced queries weigh 2)")
	queueWait := flag.Duration("queue-wait", time.Second, "max wait at the admission gate before shedding with 429")
	reqTimeout := flag.Duration("request-timeout", 30*time.Second, "per-query deadline (0 disables)")
	brkFaults := flag.Int("breaker-faults", 5, "consecutive index faults that trip the circuit breaker")
	brkCool := flag.Duration("breaker-cooldown", 10*time.Second, "breaker open-state cooldown before a recovery probe")
	maxRefine := flag.Int64("max-refine-nodes", 0, "per-query refinement-node budget (0 = unlimited)")
	maxCand := flag.Int("max-candidates", 0, "per-query candidate cap (0 = unlimited)")
	maxResults := flag.Int("max-results", 0, "per-query result cap (0 = unlimited)")
	ingestQueue := flag.Int("ingest-queue", 256, "bounded ingest queue depth in requests (full queue sheds with 429)")
	ingestBatch := flag.Int("ingest-batch", 64, "operations after which an ingest group commit stops taking further queued requests")
	maxIngestBytes := flag.Int64("max-ingest-bytes", defaultMaxIngestBytes, "max /ingest request body size")
	saveInterval := flag.Duration("save-interval", 0, "legacy alias for -checkpoint-age, which it overrides when positive (0 = use -checkpoint-age)")
	ckOps := flag.Int("checkpoint-ops", 1024, "checkpoint a database (each shard, in collection mode) once this many operations were committed since its last checkpoint (negative disables)")
	ckBytes := flag.Int64("checkpoint-bytes", 4<<20, "checkpoint once this many heap bytes were written since the last checkpoint (negative disables)")
	ckAge := flag.Duration("checkpoint-age", 30*time.Second, "checkpoint once the last one is this old and an operation was committed since (negative disables)")
	scrubInterval := flag.Duration("scrub-interval", 2*time.Minute, "background scrub pass interval over index pages, heap records and heap batch checksums (0 disables)")
	drain := flag.Duration("drain", 15*time.Second, "graceful-shutdown drain deadline")
	flag.Parse()
	if (*dbdir == "") == (*colRoot == "") {
		fmt.Fprintln(os.Stderr, "usage: fixserve -db DIR | -collections DIR  [-addr :8080] [-slow DUR] [-pprof]")
		os.Exit(2)
	}

	cfg := serverConfig{
		maxInFlight:    *maxInFlight,
		queueWait:      *queueWait,
		requestTimeout: *reqTimeout,
		breakerFaults:  *brkFaults,
		breakerCool:    *brkCool,
		ingest: fix.IngestConfig{
			QueueDepth: *ingestQueue,
			MaxBatch:   *ingestBatch,
		},
		maxIngestBytes: *maxIngestBytes,
		pprof:          *withPprof,
	}
	var onSlow func(fix.QueryTrace)
	if *slow > 0 {
		onSlow = func(t fix.QueryTrace) {
			log.Printf("slow query (>= %v):\n%s", *slow, t.String())
		}
	}
	// The one maintenance policy: every database — the single index, or
	// each shard of each collection — runs a fix.Maintainer under it.
	mcfg := fix.MaintainConfig{
		WALOps:        *ckOps,
		WALBytes:      *ckBytes,
		MaxAge:        *ckAge,
		ScrubInterval: *scrubInterval,
	}
	if *saveInterval > 0 {
		mcfg.MaxAge = *saveInterval
	}
	if *scrubInterval <= 0 {
		mcfg.ScrubInterval = -1
	}

	// The signal context also bounds the maintenance loops: they stop
	// when shutdown starts and leave the final checkpoint to the tail
	// below.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var (
		b      backend
		banner string
	)
	if *colRoot != "" {
		svc, err := collection.OpenService(*colRoot, collection.Options{
			ShardTimeout:       *shardTimeout,
			MaxRefineNodes:     *maxRefine,
			MaxCandidates:      *maxCand,
			MaxResults:         *maxResults,
			Ingest:             cfg.ingest,
			SlowQueryThreshold: *slow,
			OnSlowQuery:        onSlow,
			Maintain:           &collection.Maintenance{Ctx: ctx, Config: mcfg},
		})
		if err != nil {
			log.Fatalf("fixserve: %v", err)
		}
		obs.Publish(func() any { return obs.Default().Snapshot() })
		b = newColServer(svc, cfg)
		banner = fmt.Sprintf("serving %d collection(s) from %s", len(svc.Names()), *colRoot)
	} else {
		db, err := fix.Open(*dbdir)
		if err != nil {
			log.Fatalf("fixserve: %v", err)
		}
		db.SetOptions(fix.Options{
			Limits:             fix.Limits{MaxRefineNodes: *maxRefine, MaxCandidates: *maxCand, MaxResults: *maxResults},
			SlowQueryThreshold: *slow,
			OnSlowQuery:        onSlow,
		})
		fix.PublishExpvar(db)
		s := newServer(db, cfg)
		mnt, err := db.StartMaintainer(ctx, mcfg)
		if err != nil {
			log.Fatalf("fixserve: %v", err)
		}
		s.setMaintainer(mnt)
		b = s
		banner = fmt.Sprintf("%d documents", db.NumDocuments())
	}

	srv := &http.Server{
		Addr:         *addr,
		Handler:      b.handler(),
		ReadTimeout:  10 * time.Second,
		WriteTimeout: 60 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("fixserve: %s, listening on %s", banner, *addr)

	select {
	case err := <-errc:
		log.Fatalf("fixserve: %v", err)
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second ^C kills hard
	log.Printf("fixserve: shutdown signal, draining for up to %v", *drain)
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		log.Printf("fixserve: drain incomplete: %v", err)
	}
	// Stop maintenance and flush queued writes, then checkpoint so a
	// restart has nothing to catch up.
	if err := b.stopWrites(); err != nil {
		log.Printf("fixserve: flushing ingest: %v", err)
	}
	if err := b.save(); err != nil {
		log.Printf("fixserve: final save: %v", err)
	}
	if err := b.close(); err != nil {
		log.Printf("fixserve: close: %v", err)
	}
}

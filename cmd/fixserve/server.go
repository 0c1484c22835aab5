package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"log"
	"net/http"
	"time"

	"github.com/fix-index/fix/fix"
	"github.com/fix-index/fix/internal/collection"
	"github.com/fix-index/fix/internal/obs"
)

// serverConfig carries the operational knobs from flags to the server.
type serverConfig struct {
	maxInFlight    int64            // admission gate capacity, in weight units
	queueWait      time.Duration    // max wait at the gate before 429
	requestTimeout time.Duration    // per-query deadline (0 disables)
	breakerFaults  int              // consecutive faults that trip the breaker
	breakerCool    time.Duration    // open-state cooldown before probing
	ingest         fix.IngestConfig // ingester tuning (queue depth, batching)
	maxIngestBytes int64            // /ingest body cap (0 = defaultMaxIngestBytes)
	pprof          bool
}

// ingester is the slice of fix.Ingester the server drives; a seam so
// handler tests can inject commit-phase failures deterministically.
type ingester interface {
	Apply(ctx context.Context, ops []fix.Op) ([]uint32, error)
	QueueLen() int
	Close() error
}

// server wires resource governance — the admission gate and the index
// circuit breaker — around a fix.DB's query path, and a shared group-
// commit ingester around its write path.
type server struct {
	db   *fix.DB
	ing  ingester
	gate *gate
	brk  *breaker
	cfg  serverConfig
	// mnt is the background maintainer main starts in single-index
	// mode; nil in handler tests (and on in-memory DBs). Written once
	// before the listener starts. // immutable after publish
	mnt *fix.Maintainer
}

// setMaintainer wires the background maintainer into the server. It is
// part of construction: callers invoke it before the listener starts,
// and the field is read-only afterwards. lockcheck: builder
func (s *server) setMaintainer(m *fix.Maintainer) { s.mnt = m }

func newServer(db *fix.DB, cfg serverConfig) *server {
	return &server{
		db:   db,
		ing:  db.NewIngester(cfg.ingest),
		gate: newGate(cfg.maxInFlight),
		brk:  newBreaker(cfg.breakerFaults, cfg.breakerCool),
		cfg:  cfg,
	}
}

// backend is what a serving mode puts behind main's one lifecycle: the
// HTTP surface while serving, then the three steps of the shutdown tail.
type backend interface {
	handler() http.Handler
	// stopWrites stops background maintenance and drains the ingest
	// queues: everything already acknowledged or queued has committed
	// when it returns.
	stopWrites() error
	// save checkpoints every database, so a restart has nothing to catch
	// up.
	save() error
	// close releases the databases.
	close() error
}

func (s *server) stopWrites() error {
	if s.mnt != nil {
		s.mnt.Close()
	}
	return s.ing.Close()
}

func (s *server) save() error  { return s.db.Save() }
func (s *server) close() error { return s.db.Close() }

func (s *server) handler() http.Handler {
	mux := buildMux(singleModeRoutes, map[string]http.Handler{
		"GET /query":             http.HandlerFunc(s.handleQuery),
		"POST /ingest":           http.HandlerFunc(s.handleIngest),
		"POST /admin/checkpoint": http.HandlerFunc(s.handleAdminCheckpoint),
		"GET /metrics":           http.HandlerFunc(s.handleMetrics),
		"GET /debug/vars":        expvar.Handler(),
		"GET /healthz":           http.HandlerFunc(s.handleHealthz),
		"GET /readyz":            http.HandlerFunc(s.handleReadyz),
	})
	if s.cfg.pprof {
		mountPprof(mux)
	}
	return mux
}

// admit passes one request through the weighted admission gate, waiting
// at most queueWait; on shedding it writes the 429 + Retry-After
// response and returns false. The caller must Release(weight) after a
// true return. A gate with room admits at once, with no wait context and
// so no timer.
func admit(w http.ResponseWriter, r *http.Request, g *gate, queueWait time.Duration, weight int64) bool {
	if g.TryAcquire(weight) {
		return true
	}
	waitCtx := r.Context()
	if queueWait > 0 {
		var cancel context.CancelFunc
		waitCtx, cancel = context.WithTimeout(waitCtx, queueWait)
		defer cancel()
	}
	if err := g.Acquire(waitCtx, weight); err != nil {
		obs.Default().ObserveAdmissionRejected()
		w.Header().Set("Retry-After", "1")
		http.Error(w, "server at capacity, retry later", http.StatusTooManyRequests)
		return false
	}
	return true
}

// queryResponse is the /query JSON shape. Trace is present only when
// the request asked for one with trace=1; ScanFallback reports that the
// count came from the exact sequential scan (degraded index, or the
// circuit breaker routing around a suspected-faulty one). Its encode
// method (response.go) writes it, so a field added here is added there.
type queryResponse struct {
	Query        string          `json:"query"`
	Count        int             `json:"count"`
	Entries      int             `json:"entries"`
	Candidates   int             `json:"candidates"`
	Matched      int             `json:"matched_entries"`
	ScanFallback bool            `json:"scan_fallback,omitempty"`
	Trace        *fix.QueryTrace `json:"trace,omitempty"`
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	expr := params.Get("q")
	if expr == "" {
		http.Error(w, "missing q parameter", http.StatusBadRequest)
		return
	}
	traced := params.Get("trace") == "1"
	weight := int64(1)
	if traced {
		weight = 2
	}
	if !admit(w, r, s.gate, s.cfg.queueWait, weight) {
		return
	}
	defer s.gate.Release(weight)

	qctx := r.Context()
	if s.cfg.requestTimeout > 0 {
		var cancel context.CancelFunc
		qctx, cancel = context.WithTimeout(qctx, s.cfg.requestTimeout)
		defer cancel()
	}
	opts := []fix.QueryOption{}
	if traced {
		opts = append(opts, fix.Trace())
	}
	useIndex := s.brk.Allow()
	if !useIndex {
		opts = append(opts, fix.ScanOnly())
	}
	res, err := s.db.QueryCtx(qctx, expr, opts...)
	if useIndex && s.db.HasIndex() {
		s.brk.Record(indexFault(err))
	}
	if err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	resp := queryResponse{
		Query:        expr,
		Count:        res.Count,
		Entries:      res.Entries,
		Candidates:   res.Candidates,
		Matched:      res.MatchedEntries,
		ScanFallback: res.ScanFallback,
		Trace:        res.Trace,
	}
	body, err := resp.encode()
	writeBody(w, body, err)
}

func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	serveIngest(w, r, s.gate, s.cfg, 1, recTarget{s.ing}, s.addOp, s.db.IngestLag)
}

// addOp parses doc into an add for the one shard a single index is.
func (s *server) addOp(doc string) (collection.Op, error) {
	op, err := s.db.AddOp(doc)
	return collection.Op{Op: op}, err
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.db.Metrics())
}

// healthResponse is the single-index /healthz JSON body: the verdict
// plus the database's health block, the same block collection mode
// reports per shard.
type healthResponse struct {
	Status string `json:"status"`
	collection.ShardHealth
}

// handleHealthz reports index health: 200 when healthy (or there is no
// index to degrade), 503 with the degradation cause otherwise. A
// degraded database still answers queries — exactly, via the scan
// fallback — so health here means "at full speed", not "alive"; a
// suspended checkpointer degrades it too (collection.HealthOf).
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := healthResponse{Status: "ok", ShardHealth: collection.HealthOf(s.db, s.ing.QueueLen(), s.mnt)}
	status := http.StatusOK
	if !resp.Healthy {
		resp.Status = "degraded"
		status = http.StatusServiceUnavailable
	}
	writeJSONStatus(w, status, resp)
}

// checkpointResponse is the POST /admin/checkpoint JSON body, reporting
// the heap bytes written since the checkpoint (0 on success).
type checkpointResponse struct {
	Status   string `json:"status"`
	WALBytes int64  `json:"wal_bytes"`
}

// handleAdminCheckpoint forces a checkpoint right now — before taking a
// filesystem snapshot, or to empty the catch-up window ahead of a planned
// restart. It routes through the maintainer when one is running (so the
// attempt also feeds its failure/suspension state machine) and falls
// back to a direct checkpoint otherwise.
func (s *server) handleAdminCheckpoint(w http.ResponseWriter, r *http.Request) {
	var err error
	if s.mnt != nil {
		err = s.mnt.Checkpoint(r.Context())
	} else {
		err = s.db.CheckpointCtx(r.Context())
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, checkpointResponse{Status: "ok", WALBytes: s.db.WALBytes()})
}

// readyResponse is the /readyz JSON body.
type readyResponse struct {
	Status   string `json:"status"`
	InFlight int64  `json:"in_flight"`
	Capacity int64  `json:"capacity"`
	Breaker  string `json:"breaker"`
}

// handleReadyz reports the gate with the breaker state riding along
// for operators.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	serveReadyz(w, s.gate, s.brk.State())
}

// serveReadyz reflects admission-gate saturation: 503 while the gate is
// full (new requests would queue or be shed), 200 otherwise. Load
// balancers use it to steer traffic away before requests start seeing
// 429s.
func serveReadyz(w http.ResponseWriter, g *gate, breaker string) {
	inFlight, capacity := g.Load()
	resp := readyResponse{
		Status:   "ready",
		InFlight: inFlight,
		Capacity: capacity,
		Breaker:  breaker,
	}
	status := http.StatusOK
	if inFlight >= capacity {
		resp.Status = "saturated"
		status = http.StatusServiceUnavailable
	}
	writeJSONStatus(w, status, resp)
}

// statusFor maps a query error onto an HTTP status: client mistakes are
// 400, resource kills name which bound was hit, and everything else is
// a server fault.
func statusFor(err error) int {
	switch {
	case errors.Is(err, fix.ErrBadQuery), errors.Is(err, fix.ErrQueryLimit):
		return http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, fix.ErrBudgetExceeded):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

// indexFault reports whether err impugns the index read path (and so
// should feed the circuit breaker). Client errors, deadlines,
// cancellations and budget kills are expected under governance and say
// nothing about index health.
func indexFault(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, fix.ErrBadQuery) || errors.Is(err, fix.ErrQueryLimit) ||
		errors.Is(err, fix.ErrBudgetExceeded) ||
		errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	writeJSONStatus(w, http.StatusOK, v)
}

func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Printf("fixserve: encoding response: %v", err)
	}
}

package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"

	"github.com/fix-index/fix/internal/collection"
	"github.com/fix-index/fix/internal/obs"
)

// Collection mode (-collections DIR): fixserve serves a registry of
// named, sharded collections instead of one database. Per-collection
// serving lives under /c/{collection}/ — query, ingest, stats — and the
// admin surface under /collections creates, lists and drops them. The
// admission gate is shared across collections, with per-tenant weights:
// each request is charged its collection's manifest Weight (doubled for
// traced queries), so one heavy tenant exhausts its share of capacity
// without multiplying everyone's latency. The circuit breaker is a
// single-index-mode feature; collection shards already degrade to the
// exact scan fallback individually, which /healthz and each result's
// shard rows report.

// colServer wires the admission gate and the collection service behind
// the collection-mode HTTP surface.
type colServer struct {
	svc  *collection.Service
	gate *gate
	cfg  serverConfig
}

func newColServer(svc *collection.Service, cfg serverConfig) *colServer {
	return &colServer{svc: svc, gate: newGate(cfg.maxInFlight), cfg: cfg}
}

// each calls fn for every live collection, in name order, holding a
// reference across the call so a concurrent Drop waits. It returns the
// first error; the remaining collections are still visited.
func (cs *colServer) each(fn func(*collection.Collection) error) error {
	var first error
	for _, name := range cs.svc.Names() {
		col, release, err := cs.svc.Acquire(name)
		if err != nil {
			continue // dropped between Names and Acquire
		}
		if err := fn(col); err != nil && first == nil {
			first = err
		}
		release()
	}
	return first
}

// stopWrites flushes every shard's ingest queue. The shards' maintainers
// stopped with the context main started them under; close waits for
// them.
func (cs *colServer) stopWrites() error {
	return cs.each(func(col *collection.Collection) error { return col.Flush(context.Background()) })
}

// save absorbs every shard's WAL; a shard that fails does not stop the
// rest from saving.
func (cs *colServer) save() error  { return cs.each((*collection.Collection).Save) }
func (cs *colServer) close() error { return cs.svc.Close() }

func (cs *colServer) handler() http.Handler {
	mux := buildMux(collectionModeRoutes, map[string]http.Handler{
		"GET /c/{collection}/query":        http.HandlerFunc(cs.handleQuery),
		"POST /c/{collection}/ingest":      http.HandlerFunc(cs.handleIngest),
		"GET /c/{collection}/stats":        http.HandlerFunc(cs.handleStats),
		"GET /collections":                 http.HandlerFunc(cs.handleList),
		"POST /collections":                http.HandlerFunc(cs.handleCreate),
		"DELETE /collections/{collection}": http.HandlerFunc(cs.handleDrop),
		"GET /metrics":                     http.HandlerFunc(cs.handleMetrics),
		"GET /debug/vars":                  expvar.Handler(),
		"GET /healthz":                     http.HandlerFunc(cs.handleHealthz),
		"GET /readyz":                      http.HandlerFunc(cs.handleReadyz),
	})
	if cs.cfg.pprof {
		mountPprof(mux)
	}
	return mux
}

// acquire resolves the {collection} path value against the registry,
// writing the 404 itself when the name is unknown. The release func
// pins the collection against Drop for the request's duration.
func (cs *colServer) acquire(w http.ResponseWriter, r *http.Request) (*collection.Collection, func(), bool) {
	name := r.PathValue("collection")
	col, release, err := cs.svc.Acquire(name)
	if err != nil {
		http.Error(w, fmt.Sprintf("unknown collection %q", name), http.StatusNotFound)
		return nil, nil, false
	}
	return col, release, true
}

// colQueryResponse is the /c/{collection}/query JSON shape: the merged
// collection result plus request attribution. The embedded
// collection.Result carries count, per-shard rows (with traces when
// trace=1), and the partial/degraded flags. Its encode method
// (response.go) writes it, so a field added here or to collection.Result
// or collection.ShardResult is added there.
type colQueryResponse struct {
	Collection string `json:"collection"`
	Query      string `json:"query"`
	collection.Result
}

func (cs *colServer) handleQuery(w http.ResponseWriter, r *http.Request) {
	col, release, ok := cs.acquire(w, r)
	if !ok {
		return
	}
	defer release()
	params := r.URL.Query()
	expr := params.Get("q")
	if expr == "" {
		http.Error(w, "missing q parameter", http.StatusBadRequest)
		return
	}
	traced := params.Get("trace") == "1"
	weight := int64(col.Weight())
	if traced {
		weight *= 2
	}
	if !admit(w, r, cs.gate, cs.cfg.queueWait, weight) {
		return
	}
	defer cs.gate.Release(weight)

	qctx := r.Context()
	if cs.cfg.requestTimeout > 0 {
		var cancel context.CancelFunc
		qctx, cancel = context.WithTimeout(qctx, cs.cfg.requestTimeout)
		defer cancel()
	}
	res, err := col.Query(qctx, expr, collection.QueryOpts{Trace: traced})
	if err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	resp := colQueryResponse{Collection: col.Name(), Query: expr, Result: res}
	body, err := resp.encode()
	writeBody(w, body, err)
}

func (cs *colServer) handleIngest(w http.ResponseWriter, r *http.Request) {
	col, release, ok := cs.acquire(w, r)
	if !ok {
		return
	}
	defer release()
	serveIngest(w, r, cs.gate, cs.cfg, int64(col.Weight()), col, col.AddOp,
		func() int { return col.Stats().IngestLag })
}

func (cs *colServer) handleStats(w http.ResponseWriter, r *http.Request) {
	col, release, ok := cs.acquire(w, r)
	if !ok {
		return
	}
	defer release()
	writeJSON(w, col.Stats())
}

// createRequest is the POST /collections JSON body: the collection
// spec. Name is required; Shards defaults to 1, Weight to 1.
type createRequest struct {
	Name       string `json:"name"`
	Shards     int    `json:"shards"`
	Weight     int    `json:"weight"`
	DepthLimit int    `json:"depth_limit"`
	Values     bool   `json:"values"`
	Workers    int    `json:"workers"`
}

func (cs *colServer) handleCreate(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	var req createRequest
	if err := dec.Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	col, err := cs.svc.Create(r.Context(), req.Name, collection.Spec{
		Name:       req.Name,
		Shards:     req.Shards,
		Weight:     req.Weight,
		DepthLimit: req.DepthLimit,
		Values:     req.Values,
		Workers:    req.Workers,
	})
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, collection.ErrExists) {
			status = http.StatusConflict
		}
		http.Error(w, err.Error(), status)
		return
	}
	writeJSONStatus(w, http.StatusCreated, col.Stats())
}

// listResponse is the GET /collections JSON shape.
type listResponse struct {
	Collections []collection.Stats `json:"collections"`
}

func (cs *colServer) handleList(w http.ResponseWriter, r *http.Request) {
	resp := listResponse{Collections: []collection.Stats{}}
	_ = cs.each(func(col *collection.Collection) error {
		resp.Collections = append(resp.Collections, col.Stats())
		return nil
	})
	writeJSON(w, resp)
}

func (cs *colServer) handleDrop(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("collection")
	if err := cs.svc.Drop(name); err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, collection.ErrNotFound) {
			status = http.StatusNotFound
		}
		http.Error(w, err.Error(), status)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (cs *colServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, obs.Default().Snapshot())
}

// colHealthResponse is the collection-mode /healthz JSON body: the
// aggregate verdict plus every shard of every collection (generation,
// lag, health cause).
type colHealthResponse struct {
	Status      string                              `json:"status"`
	Collections map[string][]collection.ShardHealth `json:"collections"`
}

// handleHealthz aggregates per-shard health across all collections: 200
// when every shard of every collection is at full speed, 503 with the
// unhealthy shards' causes otherwise. As in single-index mode, degraded
// means "answering exactly but slowly via the scan fallback" or
// "checkpointing suspended", not "down".
func (cs *colServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := colHealthResponse{Status: "ok", Collections: map[string][]collection.ShardHealth{}}
	status := http.StatusOK
	_ = cs.each(func(col *collection.Collection) error {
		health := col.Health()
		resp.Collections[col.Name()] = health
		for _, h := range health {
			if !h.Healthy {
				resp.Status = "degraded"
				status = http.StatusServiceUnavailable
			}
		}
		return nil
	})
	writeJSONStatus(w, status, resp)
}

// handleReadyz is single-index mode's minus the breaker (collection
// shards degrade individually instead).
func (cs *colServer) handleReadyz(w http.ResponseWriter, r *http.Request) {
	serveReadyz(w, cs.gate, "none")
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"github.com/fix-index/fix/fix"
	"github.com/fix-index/fix/internal/collection"
)

// POST /ingest accepts writes in two shapes:
//
//   - a raw XML document body (any Content-Type except NDJSON): one
//     durable insert, responding with its assigned ID;
//   - a Content-Type: application/x-ndjson body: one JSON operation per
//     line, {"op":"add","xml":"<doc/>"} or {"op":"delete","rec":7},
//     committed in order as one submission to the shared ingester (one
//     per touched shard in collection mode): one group commit, one
//     publish, all or nothing.
//
// A 200 response means every operation in the request is durable (the
// heap fsync completed) and visible to queries. Backpressure from the
// bounded ingest queue surfaces as 429 with Retry-After, exactly like
// admission-gate shedding; malformed input is rejected with 400 before
// anything is queued.

// defaultMaxIngestBytes bounds the /ingest request body when no flag
// overrides it.
const defaultMaxIngestBytes = 8 << 20

// maxIngestOpsPerRequest bounds the number of NDJSON operations one
// request may carry; larger loads should be split across requests so
// backpressure can act between them.
const maxIngestOpsPerRequest = 10000

// ingestOp is one decoded NDJSON operation. Rec is 64-bit because
// collection mode addresses documents by global ID (shard in the high
// half); single-index mode has the one shard 0, so an ID past 32 bits
// names a shard it does not have (recTarget).
type ingestOp struct {
	Op  string  `json:"op"`            // "add" or "delete"
	XML string  `json:"xml,omitempty"` // add: the document text
	Rec *uint64 `json:"rec,omitempty"` // delete: the target document ID
}

// parseIngestOps decodes an NDJSON operation stream: one JSON object
// per newline-separated line, blank lines ignored. It validates shape
// only (op names, required fields, op count) — XML payloads are parsed
// later against the DB's limits. Errors name the offending line.
func parseIngestOps(data []byte) ([]ingestOp, error) {
	var ops []ingestOp
	for lineno, line := range bytes.Split(data, []byte("\n")) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		if len(ops) >= maxIngestOpsPerRequest {
			return nil, fmt.Errorf("line %d: more than %d operations in one request", lineno+1, maxIngestOpsPerRequest)
		}
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		var op ingestOp
		if err := dec.Decode(&op); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineno+1, err)
		}
		if dec.More() {
			return nil, fmt.Errorf("line %d: trailing data after the JSON object", lineno+1)
		}
		switch op.Op {
		case "add":
			if op.XML == "" {
				return nil, fmt.Errorf("line %d: \"add\" needs a non-empty \"xml\" field", lineno+1)
			}
			if op.Rec != nil {
				return nil, fmt.Errorf("line %d: \"add\" does not take a \"rec\" field", lineno+1)
			}
		case "delete":
			if op.Rec == nil {
				return nil, fmt.Errorf("line %d: \"delete\" needs a \"rec\" field", lineno+1)
			}
			if op.XML != "" {
				return nil, fmt.Errorf("line %d: \"delete\" does not take an \"xml\" field", lineno+1)
			}
		default:
			return nil, fmt.Errorf("line %d: unknown op %q (want \"add\" or \"delete\")", lineno+1, op.Op)
		}
		ops = append(ops, op)
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("empty request: no operations")
	}
	return ops, nil
}

// ingestResponse is the /ingest JSON shape. IDs lists the assigned
// document IDs of the request's adds, in request order (global IDs in
// collection mode, plain records in single-index mode).
type ingestResponse struct {
	IDs       []uint64 `json:"ids"`
	Added     int      `json:"added"`
	Deleted   int      `json:"deleted"`
	IngestLag int      `json:"ingest_lag"`
}

// readIngestOps reads and decodes an ingest request body: NDJSON
// operations under Content-Type application/x-ndjson, a single raw XML
// add otherwise. On failure it writes the error response and returns
// ok=false.
func readIngestOps(w http.ResponseWriter, r *http.Request, maxBytes int64) ([]ingestOp, bool) {
	if maxBytes <= 0 {
		maxBytes = defaultMaxIngestBytes
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("request body over %d bytes", maxBytes), http.StatusRequestEntityTooLarge)
			return nil, false
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil, false
	}
	if strings.Contains(r.Header.Get("Content-Type"), "ndjson") {
		ops, err := parseIngestOps(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return nil, false
		}
		return ops, true
	}
	return []ingestOp{{Op: "add", XML: string(body)}}, true
}

// ingestTarget is where the ingest executor sends a request: its
// operations, in order, as one submission per touched shard, answered
// with the 64-bit ID each operation added or deleted. A
// *collection.Collection is one as it stands; single-index mode wraps
// its ingester in recTarget.
type ingestTarget interface {
	Apply(ctx context.Context, ops []collection.Op) ([]uint64, error)
}

// recTarget adapts the single-index ingester, whose documents are
// 32-bit records, to the executor's operations: the database is shard 0
// of a collection of one.
type recTarget struct{ ing ingester }

func (t recTarget) Apply(ctx context.Context, ops []collection.Op) ([]uint64, error) {
	fops := make([]fix.Op, len(ops))
	for i, op := range ops {
		if op.Shard != 0 {
			return nil, fmt.Errorf("%w: operation %d names a record out of range", fix.ErrUnknownDocument, i)
		}
		fops[i] = op.Op
	}
	recs, err := t.ing.Apply(ctx, fops)
	if err != nil {
		return nil, err
	}
	ids := make([]uint64, len(recs))
	for i, rec := range recs {
		ids[i] = uint64(rec)
	}
	return ids, nil
}

// serveIngest is the ingest handler of both modes. Writes pass the same
// admission gate as queries (ingest work must not starve readers, and a
// saturated server sheds both alike), charged weight units. addOp parses
// a document — its only parse — into the target's add operation; every
// document is parsed before anything is queued, so a malformed line
// cannot leave the earlier half of the request — or another shard's
// submission — committed. lag reports the target's operations since its
// last checkpoint for the response.
func serveIngest(w http.ResponseWriter, r *http.Request, g *gate, cfg serverConfig, weight int64,
	tgt ingestTarget, addOp func(doc string) (collection.Op, error), lag func() int) {
	if !admit(w, r, g, cfg.queueWait, weight) {
		return
	}
	defer g.Release(weight)

	reqOps, ok := readIngestOps(w, r, cfg.maxIngestBytes)
	if !ok {
		return
	}
	ops := make([]collection.Op, len(reqOps))
	for i, op := range reqOps {
		if op.Op == "delete" {
			ops[i] = collection.DeleteOp(*op.Rec)
			continue
		}
		var err error
		if ops[i], err = addOp(op.XML); err != nil {
			http.Error(w, fmt.Sprintf("op %d: %v", i+1, err), http.StatusBadRequest)
			return
		}
	}

	resp, err := runIngest(r.Context(), tgt, reqOps, ops)
	if err != nil {
		if errors.Is(err, fix.ErrIngestQueueFull) {
			w.Header().Set("Retry-After", "1")
			http.Error(w, err.Error(), http.StatusTooManyRequests)
			return
		}
		http.Error(w, err.Error(), ingestStatusFor(err))
		return
	}
	resp.IngestLag = lag()
	writeJSON(w, resp)
}

// runIngest hands the request's operations to the target in one call and
// reports the IDs of its adds, in request order.
func runIngest(ctx context.Context, tgt ingestTarget, reqOps []ingestOp, ops []collection.Op) (ingestResponse, error) {
	resp := ingestResponse{IDs: []uint64{}}
	ids, err := tgt.Apply(ctx, ops)
	if err != nil {
		return resp, err
	}
	for i, op := range reqOps {
		if op.Op == "delete" {
			resp.Deleted++
			continue
		}
		resp.IDs = append(resp.IDs, ids[i])
	}
	resp.Added = len(resp.IDs)
	return resp, nil
}

// ingestStatusFor maps a commit-phase ingest error onto an HTTP status.
// Queue-full is handled by the caller (429 + Retry-After); everything
// reaching here was structurally valid input, so the remaining statuses
// describe server state.
func ingestStatusFor(err error) int {
	switch {
	case errors.Is(err, fix.ErrIngesterClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, fix.ErrDocumentLimit):
		return http.StatusBadRequest
	case errors.Is(err, fix.ErrUnknownDocument):
		return http.StatusNotFound
	default:
		return http.StatusInternalServerError
	}
}

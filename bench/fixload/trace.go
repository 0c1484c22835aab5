package main

import (
	"context"
	"fmt"
	"os"
	"time"
)

// tracedRounds is how many ?trace=1 rounds the traced run interleaves
// with its untraced rounds to price tracing itself.
const tracedRounds = 2

// layerUnits lists every per-layer metric in report order. A metric that
// does not apply to a workload (an ingest cost on a read-only workload)
// is reported as 0.
var layerUnits = [][2]string{
	{"fixserve.query_self_ms", "ms"}, {"fixserve.ingest_self_ms", "ms"},
	{"fixserve.query_p50_ms", "ms"}, {"fixserve.ingest_p50_ms", "ms"}, {"fixserve.ingest_p95_ms", "ms"},
	{"fixserve.resp_bytes_per_query", "B"}, {"fixserve.rejected_429", "count"}, {"fixserve.reopen_ms", "ms"},
	{"collection.query_self_ms", "ms"}, {"collection.addbatch_self_ms", "ms"},
	{"collection.shards_per_query", "count"}, {"collection.targeted_share", "ratio"},
	{"fix.query_ms", "ms"}, {"fix.query_self_ms", "ms"}, {"fix.ingest_batch_ms", "ms"}, {"fix.ingest_self_ms", "ms"},
	{"fix.checkpoint_ms", "ms"}, {"fix.checkpoints", "count"}, {"fix.generations_published", "count"},
	{"fix.open_ms", "ms"}, {"fix.open_replay_ms", "ms"},
	{"fix.build_wall_s", "s"}, {"fix.build_parse_s", "s"}, {"fix.build_bisim_s", "s"}, {"fix.build_eigen_s", "s"}, {"fix.build_insert_s", "s"},
	{"xpath.parse_us", "us"},
	{"core.plan_us", "us"}, {"core.probe_us", "us"}, {"core.scanned_per_result", "ratio"}, {"core.candidates_per_result", "ratio"},
	{"core.insert_doc_us", "us"}, {"core.wal_append_us", "us"}, {"core.wal_bytes_per_user_byte", "ratio"},
	{"bisim.build_us_per_kelem", "us"}, {"matrix.build_edges_us", "us"}, {"eigen.skewmax_us", "us"},
	{"btree.pages_read_per_probe", "count"}, {"btree.cache_hit_ratio", "ratio"}, {"btree.scan_us_per_kentry", "us"},
	{"btree.put_us", "us"}, {"btree.page_writes_per_insert", "ratio"}, {"btree.bytes_per_entry", "B"}, {"btree.pages", "count"},
	{"storage.read_subtree_us", "us"}, {"storage.bytes_read_per_query", "B"}, {"storage.cached_read_ratio", "ratio"},
	{"storage.bytes_written_per_user_byte", "ratio"},
	{"nok.compile_us", "us"}, {"nok.eval_us_per_candidate", "us"}, {"nok.nodes_visited_per_query", "count"}, {"nok.allocs_per_eval", "count"},
	{"xmltree.parse_mb_per_s", "MB/s"}, {"xmltree.encode_mb_per_s", "MB/s"},
	{"par.build_speedup", "ratio"},
	{"obs.trace_overhead_pct", "%"},
	{"proc.cpu_ms_per_op", "ms"}, {"proc.quiet_cpu_ms_per_op", "ms"},
	{"proc.write_bytes_per_user_byte", "ratio"}, {"proc.fsyncs_per_batch", "ratio"},
	{"bench.round_iqr_pct.ops_per_s", "%"}, {"bench.round_iqr_pct.op_p50_ms", "%"},
	{"bench.round_iqr_pct.op_p95_ms", "%"}, {"bench.round_iqr_pct.server_cpu_ms_per_op", "%"},
	{"bench.pooled_p99_ms", "ms"}, {"bench.observed_to_quiet", "ratio"},
	{"bench.ledger_coverage", "ratio"}, {"bench.loadgen_cpu_share", "ratio"},
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// probe is the server-side state the traced run differences around its
// measured rounds.
type probe struct {
	c       counters
	gens    float64 // sum of the generation numbers of every database
	written int64   // write_bytes of /proc/<pid>/io
}

func (s *server) probe(collectionMode bool) (probe, error) {
	var p probe
	var err error
	if p.c, err = s.counters(); err != nil {
		return p, err
	}
	if p.written, err = procWriteBytes(s.pid); err != nil {
		return p, err
	}
	if !collectionMode {
		p.gens = float64(p.c.Generation)
		return p, nil
	}
	// Collection mode exposes generations on /healthz only.
	var h struct {
		Collections map[string][]struct {
			Generation uint64 `json:"generation"`
		} `json:"collections"`
	}
	if err := s.getJSON("/healthz", &h); err != nil {
		return p, err
	}
	for _, shards := range h.Collections {
		for _, sh := range shards {
			p.gens += float64(sh.Generation)
		}
	}
	return p, nil
}

// httpPhase is what the HTTP rounds of a traced run measured.
type httpPhase struct {
	plain, traced       []roundStats
	plainOps, tracedOps [][]op      // what those rounds played
	pooled              []float64   // every untraced op latency, ms
	queryLat, ingestLat [][]float64 // per untraced round, ms
	addedBytes          int64       // XML bytes ingested in the measured rounds
	before, after       probe
	reopen              time.Duration
}

// tracedHTTP runs the HTTP phase: a warm-up round, then the untraced
// rounds with the ?trace=1 rounds at positions 2 and 4 between them, and
// the same crash check, drain and verification as an end-to-end run.
// The operations the in-process depths will replay (replayOps) become
// root spans: every untraced round of a read-only workload, the first
// round of a write workload, so that every layer samples every class
// equally often.
func (r *run) tracedHTTP(ctx context.Context, lg *ledger) (*httpPhase, error) {
	sp, srv := r.sp, r.fx.srv
	tracedLists, err := r.fx.buildRounds(r.seed, r.rounds+1, true)
	if err != nil {
		return nil, err
	}
	expected := r.fx.expected
	if !sp.readOnly {
		expected = nil
	}
	warm, err := playRound(srv, r.list(0), expected, false)
	if err != nil {
		return nil, err
	}
	r.account(r.list(0), warm)
	r.res.Attempted, r.res.Failed = len(r.list(0)), warm.failed

	hp := &httpPhase{}
	if hp.before, err = srv.probe(sp.collection); err != nil {
		return nil, err
	}
	reps := repCounter{}
	for k := 1; k <= r.rounds; k++ {
		isTraced := r.rounds > r.res.Rounds && (k == 2 || k == 4)
		ops := r.list(k)
		if isTraced {
			ops = r.pick(tracedLists, k)
		}
		rs, err := playRound(srv, ops, expected, false)
		if err != nil {
			return nil, err
		}
		r.account(ops, rs)
		r.res.Attempted += len(ops)
		r.res.Failed += rs.failed
		for i := range ops {
			hp.addedBytes += ops[i].addBytes()
		}
		if isTraced {
			hp.traced, hp.tracedOps = append(hp.traced, rs), append(hp.tracedOps, ops)
			continue
		}
		hp.plain, hp.plainOps = append(hp.plain, rs), append(hp.plainOps, ops)
		var ql, il []float64
		at := rs.began // closed loop: the spans of a round lie end to end
		for i, d := range rs.lat {
			key, lat := ops[i].class, float64(d)/1e6
			if ops[i].isIngest() {
				il = append(il, lat)
			} else {
				ql = append(ql, lat)
			}
			if sp.readOnly || k == 1 {
				lg.tr.add(lHTTP, "", key, reps.next(key), at, d)
			}
			at = at.Add(d)
			hp.pooled = append(hp.pooled, lat)
		}
		hp.queryLat, hp.ingestLat = append(hp.queryLat, ql), append(hp.ingestLat, il)
	}
	if hp.after, err = srv.probe(sp.collection); err != nil {
		return nil, err
	}
	bad, reopen, _, err := r.finish(ctx)
	if err != nil {
		return nil, err
	}
	hp.reopen = reopen
	r.res.Failed += bad
	r.res.Attempted += bad
	r.res.RoundOps = len(r.list(1))
	return hp, nil
}

// replays runs the in-process depths and the micro-measurements, each on
// its own copy of the snapshot taken before the server started.
func (r *run) replays(ctx context.Context, lg *ledger) (mi micro, bt buildTimes, err error) {
	depth := func(name string, fn func(dir string) error) error {
		dir := fmt.Sprintf("%s.%s", r.fx.snapshot, name)
		if err := copyTree(r.fx.snapshot, dir); err != nil {
			return err
		}
		if err := fn(dir); err != nil {
			return fmt.Errorf("%s: %s replay: %w", r.sp.name, name, err)
		}
		return os.RemoveAll(dir)
	}
	type step struct {
		name string
		fn   func(dir string) error
	}
	var steps []step
	if r.sp.collection {
		steps = append(steps, step{"collection", func(dir string) error { return r.replayCollection(ctx, lg, dir) }})
	}
	steps = append(steps,
		step{"fix", func(dir string) error { return r.replayFix(ctx, lg, dir) }},
		step{"leaves", func(dir string) error { return r.replayLeaves(ctx, lg, dir) }},
		step{"micro", func(dir string) (err error) { mi, err = r.measureMicro(dir); return err }},
		step{"build", func(dir string) (err error) { bt, err = r.measureBuild(ctx, dir); return err }},
	)
	for _, st := range steps {
		if err := depth(st.name, st.fn); err != nil {
			return mi, bt, err
		}
	}
	return mi, bt, nil
}

// runTraced is the separate traced run: a shorter HTTP phase (untraced
// rounds interleaved with ?trace=1 rounds), then the in-process replays
// of the same operations at each depth on copies of the data, and the
// micro-measurements. It reports the per-layer metrics only.
func runTraced(ctx context.Context, e *env, sp spec, seed int64, seconds int) (*result, error) {
	untraced := max(roundsFor(seconds)/2, 2)
	r := &run{e: e, sp: sp, seed: seed, rounds: untraced}
	if !sp.writeOnly { // ?trace=1 exists on queries only
		r.rounds += tracedRounds
	}
	r.res = &result{Workload: sp.name, Seed: seed, Rounds: untraced, Metrics: map[string]metric{}}
	defer r.close()
	r.warnKnownDefects()
	if _, err := r.setUpAll(ctx, 1, r.rounds+1, true); err != nil {
		return nil, err
	}
	var err error
	if r.lists, err = r.fx.buildRounds(seed, r.rounds+1, false); err != nil {
		return nil, err
	}
	lg := &ledger{tr: newTracer()}
	hp, err := r.tracedHTTP(ctx, lg)
	if err != nil {
		return nil, err
	}
	mi, bt, err := r.replays(ctx, lg)
	if err != nil {
		return nil, err
	}
	if err := e.writeTrace(sp.name, lg.tr); err != nil {
		return nil, err
	}
	if lg.leafMismatch > 0 {
		r.warn("%d templates counted differently at the leaf depth than fix.ScanOnly", lg.leafMismatch)
	}
	r.assemble(lg, hp, mi, bt)
	return r.res, nil
}

// assemble turns the spans and counters into the per-layer metrics.
func (r *run) assemble(lg *ledger, hp *httpPhase, mi micro, bt buildTimes) {
	sp := r.sp
	plain, traced, c0, c1 := hp.plain, hp.traced, hp.before.c, hp.after.c
	// Assemble the metrics.
	d := lg.tr.durations()
	m := map[string]float64{}
	nq, ni := 0.0, 0.0
	for _, o := range r.list(1) {
		if o.isIngest() {
			ni++
		} else {
			nq++
		}
	}
	if nq > 0 {
		self, http := selfTimes(d, sp.collection, false, len(sp.templates))
		printLedger(sp.name, "query", self, http)
		m["fixserve.query_self_ms"] = self[lHTTP]
		m["collection.query_self_ms"] = self[lCollection]
		m["fix.query_ms"] = layerMS(d, lFix, false, len(sp.templates))
		m["fix.query_self_ms"] = self[lFix]
		m["xpath.parse_us"] = 1000 * self[lParse]
		m["core.plan_us"] = 1000 * self[lPlan]
		m["core.probe_us"] = 1000 * self[lProbe]
		m["nok.compile_us"] = 1000 * self[lCompile]
		m["bench.ledger_coverage"] = ratio(covered(self), http)
	}
	if ni > 0 {
		self, http := selfTimes(d, sp.collection, true, len(sp.templates))
		printLedger(sp.name, "ingest", self, http)
		m["fixserve.ingest_self_ms"] = self[lHTTP]
		m["collection.addbatch_self_ms"] = self[lCollection]
		m["fix.ingest_batch_ms"] = layerMS(d, lFix, true, len(sp.templates))
		m["fix.ingest_self_ms"] = self[lFix]
		m["core.wal_append_us"] = 1000 * self[lWAL]
		m["core.insert_doc_us"] = ratio(float64(lg.insertNS)/1e3, float64(lg.insertedDocs))
		if nq == 0 {
			m["bench.ledger_coverage"] = ratio(covered(self), http)
		}
	}
	if c := m["bench.ledger_coverage"]; sp.readOnly && (c < 0.85 || c > 1.15) {
		r.warn("ledger coverage %.2f is outside 0.85-1.15: the spans measured under fix do not account for the time fix takes", c)
	}

	perRoundQ := func(lat [][]float64, q float64) float64 {
		var v []float64
		for _, l := range lat {
			if len(l) > 0 {
				v = append(v, quantile(l, q))
			}
		}
		return median(v)
	}
	m["fixserve.query_p50_ms"] = perRoundQ(hp.queryLat, 0.5)
	m["fixserve.ingest_p50_ms"] = perRoundQ(hp.ingestLat, 0.5)
	m["fixserve.ingest_p95_ms"] = perRoundQ(hp.ingestLat, 0.95)
	var respBytes, r429, selfCPU, wall float64
	for _, rs := range plain {
		respBytes += float64(rs.bytes)
		r429 += float64(rs.r429)
		selfCPU += rs.selfCPU
		wall += rs.wall.Seconds()
	}
	m["fixserve.resp_bytes_per_query"] = ratio(respBytes, nq*float64(len(plain)))
	m["fixserve.rejected_429"] = r429 + float64(c1.Rejected-c0.Rejected)
	m["fixserve.reopen_ms"] = float64(hp.reopen) / 1e6
	m["collection.shards_per_query"] = ratio(float64(lg.shardsProbed), float64(lg.colQueries))
	m["collection.targeted_share"] = ratio(float64(lg.targeted), float64(lg.colQueries))
	m["fix.checkpoint_ms"] = median(lg.checkpointMS)
	m["fix.checkpoints"] = float64(c1.Checkpoints - c0.Checkpoints)
	m["fix.generations_published"] = hp.after.gens - hp.before.gens
	m["fix.open_ms"] = lg.openMS
	m["fix.open_replay_ms"] = lg.openReplayMS
	m["fix.build_wall_s"], m["fix.build_parse_s"], m["fix.build_bisim_s"] = bt.wall, bt.parse, bt.bisim
	m["fix.build_eigen_s"], m["fix.build_insert_s"], m["par.build_speedup"] = bt.eigen, bt.insert, bt.speedup
	m["core.scanned_per_result"] = ratio(float64(lg.scanned), float64(lg.results))
	m["core.candidates_per_result"] = ratio(float64(lg.candidates), float64(lg.results))
	m["core.wal_bytes_per_user_byte"] = ratio(float64(lg.walBytes), float64(lg.addedBytes))
	m["bisim.build_us_per_kelem"], m["matrix.build_edges_us"], m["eigen.skewmax_us"] = mi.bisimUSPerKElem, mi.matrixUS, mi.eigenUS
	m["btree.pages_read_per_probe"] = ratio(float64(lg.pageReads), float64(lg.queries))
	m["btree.cache_hit_ratio"] = ratio(float64(lg.cacheHits), float64(lg.cacheHits+lg.pageReads))
	m["btree.scan_us_per_kentry"], m["btree.put_us"] = mi.scanUSPerKEntry, mi.putUS
	m["btree.page_writes_per_insert"], m["btree.bytes_per_entry"], m["btree.pages"] = mi.pageWritesPerInsert, mi.bytesPerEntry, mi.pages
	m["storage.read_subtree_us"] = ratio(float64(lg.readNS)/1e3, float64(lg.evals))
	m["storage.bytes_read_per_query"] = ratio(float64(lg.bytesRead), float64(lg.queries))
	m["storage.cached_read_ratio"] = ratio(float64(lg.cachedReads), float64(lg.heapReads))
	m["storage.bytes_written_per_user_byte"] = ratio(float64(lg.heapWritten), float64(lg.addedBytes))
	m["nok.eval_us_per_candidate"] = ratio(float64(lg.evalNS)/1e3, float64(lg.evals))
	m["nok.nodes_visited_per_query"] = ratio(float64(lg.nodesVisited), float64(lg.queries))
	m["nok.allocs_per_eval"] = ratio(float64(lg.evalMallocs), float64(lg.evals))
	m["xmltree.parse_mb_per_s"], m["xmltree.encode_mb_per_s"] = mi.parseMBs, mi.encodeMBs
	vals := perRound(plain)
	quietLat, quietCPU := quietByClass(hp.plainOps, plain)
	quiet := quietMetrics(hp.plainOps[0], quietLat, quietCPU)
	if len(traced) > 0 {
		tl, tc := quietByClass(hp.tracedOps, traced)
		m["obs.trace_overhead_pct"] = 100 * (1 - ratio(quietMetrics(hp.tracedOps[0], tl, tc)["ops_per_s"], quiet["ops_per_s"]))
	}
	m["proc.cpu_ms_per_op"] = median(vals["server_cpu_ms_per_op"])
	m["proc.quiet_cpu_ms_per_op"] = quiet["server_cpu_ms_per_op"]
	m["proc.write_bytes_per_user_byte"] = ratio(float64(hp.after.written-hp.before.written), float64(hp.addedBytes))
	m["proc.fsyncs_per_batch"] = ratio(float64(c1.IngestFsyncs-c0.IngestFsyncs), float64(c1.IngestBatches-c0.IngestBatches))
	for _, name := range []string{"ops_per_s", "op_p50_ms", "op_p95_ms", "server_cpu_ms_per_op"} {
		m["bench.round_iqr_pct."+name] = iqrPct(vals[name])
	}
	m["bench.pooled_p99_ms"] = quantile(hp.pooled, 0.99)
	m["bench.observed_to_quiet"] = ratio(quiet["ops_per_s"], median(vals["ops_per_s"]))
	m["bench.loadgen_cpu_share"] = ratio(selfCPU, wall)
	r.res.PerRound = vals

	for _, mu := range layerUnits {
		r.res.Metrics[mu[0]] = metric{m[mu[0]], mu[1]}
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strconv"
	"time"
)

// setupReps is how often an end-to-end run sets up: set-up time is one
// sample per set-up, so a run takes several and reports their median —
// more of them where a set-up is short and a burst of noise is a large
// share of it.
func (sp spec) setupReps() int {
	if sp.collection {
		return 5 // ≈0.6 s each
	}
	return 3 // ≈2 s each, mostly fixindex build
}

// roundStats is what one round measured.
type roundStats struct {
	began   time.Time
	wall    time.Duration
	lat     []time.Duration // per op, in list order
	cpuOp   []time.Duration // per op: server CPU consumed since the previous op ended
	failed  int
	cpu     float64 // server CPU seconds consumed during the round
	selfCPU float64 // load generator CPU seconds consumed during the round
	bytes   int64   // response body bytes of the queries
	r429    int
	cands   []float64 // candidates per query (filled only when asked)
}

// counters is the part of fixserve's /metrics the harness reads; the
// single-index mode adds the per-DB blocks, collection mode serves the
// registry alone.
type counters struct {
	Queries       int64  `json:"queries"`
	Candidates    int64  `json:"candidates"`
	Rejected      int64  `json:"queries_rejected_admission"`
	IngestBatches int64  `json:"ingest_batches"`
	IngestFsyncs  int64  `json:"ingest_fsyncs"`
	Checkpoints   int64  `json:"checkpoints"`
	Documents     int    `json:"documents"`
	Generation    uint64 `json:"generation"`
	BTree         struct {
		PageWrites int64 `json:"page_writes"`
	} `json:"btree"`
	Storage struct {
		BytesWritten int64 `json:"bytes_written"`
	} `json:"storage"`
}

func (s *server) counters() (counters, error) {
	var c counters
	err := s.getJSON("/metrics", &c)
	return c, err
}

// intAfter parses the integer following the first occurrence of key in
// a JSON body — enough to read "count" and "candidates" off a query
// response without decoding it inside the timed loop.
func intAfter(body []byte, key string) (int, bool) {
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return 0, false
	}
	rest := bytes.TrimLeft(body[i+len(key):], " ")
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	n, err := strconv.Atoi(string(rest[:j]))
	return n, err == nil
}

// checkResponse decides whether an operation's answer is right.
func checkResponse(o *op, expected []int, status int, body []byte) bool {
	if status != 200 {
		return false
	}
	if !o.isIngest() {
		n, ok := intAfter(body, `"count":`)
		if !ok || bytes.Contains(body, []byte(`"partial": true`)) {
			return false
		}
		return expected == nil || n == expected[o.tmpl]
	}
	var resp struct {
		IDs     []uint64 `json:"ids"`
		Added   int      `json:"added"`
		Deleted int      `json:"deleted"`
	}
	if json.Unmarshal(body, &resp) != nil {
		return false
	}
	return resp.Added == len(o.adds) && resp.Deleted == len(o.dels) && slices.Equal(resp.IDs, o.ids)
}

// playRound replays one operation list over one fresh keep-alive
// connection, closed loop: the next request leaves when the previous
// answer has been read and checked.
func playRound(srv *server, ops []op, expected []int, wantCands bool) (roundStats, error) {
	c, err := dial(srv.addr)
	if err != nil {
		return roundStats{}, err
	}
	defer c.close()
	rs := roundStats{lat: make([]time.Duration, len(ops)), cpuOp: make([]time.Duration, len(ops))}
	var body bytes.Buffer
	cpu0, err := procCPU(srv.pid)
	if err != nil {
		return rs, err
	}
	self0, err := procCPU(os.Getpid())
	if err != nil {
		return rs, err
	}
	cpuAt := cpu0
	t0 := time.Now()
	rs.began = t0
	for i := range ops {
		o := &ops[i]
		ts := time.Now()
		status, err := c.do(o.req, &body)
		rs.lat[i] = time.Since(ts)
		if now, cerr := procCPU(srv.pid); cerr == nil {
			rs.cpuOp[i], cpuAt = now-cpuAt, now
		}
		if err != nil {
			// The connection is unusable; everything left counts as failed.
			rs.failed += len(ops) - i
			fmt.Fprintf(os.Stderr, "fixload: op %d: %v\n", i, err)
			rs.lat, rs.cpuOp = rs.lat[:i+1], rs.cpuOp[:i+1]
			break
		}
		if status == 429 {
			rs.r429++
		}
		if !checkResponse(o, expected, status, body.Bytes()) {
			rs.failed++
		}
		if !o.isIngest() {
			rs.bytes += int64(body.Len())
			if wantCands {
				if n, ok := intAfter(body.Bytes(), `"candidates":`); ok {
					rs.cands = append(rs.cands, float64(n))
				}
			}
		}
	}
	rs.wall = time.Since(t0)
	cpu1, err := procCPU(srv.pid)
	if err != nil {
		return rs, err
	}
	self1, err := procCPU(os.Getpid())
	rs.cpu, rs.selfCPU = (cpu1 - cpu0).Seconds(), (self1 - self0).Seconds()
	return rs, err
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload reports.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Rounds    int               `json:"rounds"`
	RoundOps  int               `json:"ops_per_round"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"` // end-to-end, or per-layer on a traced run
	// Ungated is what an end-to-end run reports beside the metrics of
	// BENCHMARK.json: server CPU per operation (bench/README.md says why
	// it is not one of them).
	Ungated map[string]metric `json:"ungated,omitempty"`
	// Observed is the median over rounds of what each round measured on
	// the machine as it was, neighbours included, for the timing metrics
	// whose reported value is the quiet one; Spread is the inter-quartile
	// range of the rounds' values, % of that median.
	Observed map[string]float64 `json:"observed,omitempty"`
	Spread   map[string]float64 `json:"round_iqr_pct,omitempty"`
	Warnings []string           `json:"warnings,omitempty"`
	// PerRound keeps every round's observed value of the round-based
	// metrics (and every set-up time), so the report shows what the
	// medians summarize.
	PerRound map[string][]float64 `json:"per_round,omitempty"`
}

// e2eUnits lists the end-to-end metrics in report order.
var e2eUnits = [][2]string{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p95_ms", "ms"},
	{"server_rss_mb", "MB"},
	{"disk_bytes_per_user_byte", "ratio"},
}

// perRound computes every round's observed value of the timing metrics.
func perRound(rounds []roundStats) map[string][]float64 {
	out := map[string][]float64{}
	for _, rs := range rounds {
		n := float64(len(rs.lat))
		l := ms(rs.lat)
		out["ops_per_s"] = append(out["ops_per_s"], n/rs.wall.Seconds())
		out["op_p50_ms"] = append(out["op_p50_ms"], median(l))
		out["op_p95_ms"] = append(out["op_p95_ms"], quantile(l, 0.95))
		out["server_cpu_ms_per_op"] = append(out["server_cpu_ms_per_op"], 1000*rs.cpu/n)
	}
	return out
}

// quietByClass returns, per class of operations, the quiet latency and
// the quiet server CPU of one operation, in ms: the smallest of the
// class's samples over all rounds (lists[k] are the operations of
// rounds[k]). The host's other tenants slow the sandbox all the time, by
// amounts that change from one second and one hour to the next — they
// share its cores' hyperthreads and its cache — but they never speed it
// up, every answer is checked, and among hundreds of samples of an
// operation a few fall into moments when the neighbours are idle. The
// minimum is the one statistic of a class that two runs an hour apart
// agree on; bench/README.md ("Quiet latency") has the measurements.
func quietByClass(lists [][]op, rounds []roundStats) (lat, cpu map[int]float64) {
	lat, cpu = map[int]float64{}, map[int]float64{}
	for k, rs := range rounds {
		for i := range rs.lat {
			c := lists[k][i].class
			l, u := float64(rs.lat[i])/1e6, float64(rs.cpuOp[i])/1e6
			if old, ok := lat[c]; !ok || l < old {
				lat[c] = l
			}
			if old, ok := cpu[c]; !ok || u < old {
				cpu[c] = u
			}
		}
	}
	return lat, cpu
}

// quietMetrics computes the quiet timing metrics: every operation of one
// round counts with the quiet latency and CPU of its class, and the
// metrics are the percentiles, the rate and the mean of that round. They
// say what the code costs on the sandbox when nothing else runs on the
// host, which is the part of a measurement that repeats. The percentiles
// are nearest-rank ones, because a round is a mix of a few classes and an
// interpolated percentile that falls between two of them is neither's.
func quietMetrics(round []op, lat, cpu map[int]float64) map[string]float64 {
	l := make([]float64, len(round))
	var sumLat, sumCPU float64
	for i := range round {
		l[i] = lat[round[i].class]
		sumLat += l[i]
		sumCPU += cpu[round[i].class]
	}
	n := float64(len(round))
	return map[string]float64{
		"ops_per_s":            1000 * n / sumLat, // one client, closed loop: the rate is 1 / mean latency
		"op_p50_ms":            rankQuantile(l, 0.5),
		"op_p95_ms":            rankQuantile(l, 0.95),
		"server_cpu_ms_per_op": sumCPU / n,
	}
}

// run is one complete measurement of one workload.
type run struct {
	e      *env
	sp     spec
	seed   int64
	rounds int
	fx     *fixture
	lists  [][]op
	res    *result
	dir    string // this run's data directories, removed when it ends
	// bookkeeping of the documents live on the server
	liveDocs  int
	liveBytes int64
}

func (r *run) warn(format string, args ...any) {
	w := fmt.Sprintf(format, args...)
	r.res.Warnings = append(r.res.Warnings, w)
	fmt.Fprintf(os.Stderr, "fixload: WARNING: %s: %s\n", r.sp.name, w)
}

// warnKnownDefects puts on every run's record which product defects the
// workload steers around, so that a clean failed_op_share is never read
// as "the product has no such failure" (bench/README.md, "Known product
// defects").
func (r *run) warnKnownDefects() {
	if r.sp.collection {
		r.warn("the preload is pinned to datagen.DBLP seed %d: on other seeds the index misses matches that fix.ScanOnly finds (known product defect 1)", bibDataSeed)
	}
	if r.sp.writeOnly {
		r.warn("the WAL is checkpointed before the SIGKILL and before the traced run's reopen: recovery from a kill during sustained ingest can spin forever in btree.Tree.Verify (known product defect 2), so the crash check covers checkpointed documents only")
	}
}

// list returns round k's operations (k = 0 is the warm-up).
func (r *run) list(k int) []op { return r.pick(r.lists, k) }

// pick returns round k's operations from lists: a read-only workload
// replays its one list, a write workload takes the k-th slice.
func (r *run) pick(lists [][]op, k int) []op {
	if r.sp.readOnly {
		return lists[0]
	}
	return lists[k]
}

// account books the acknowledged effect of a write round.
func (r *run) account(ops []op, rs roundStats) {
	if rs.failed > 0 {
		return // a failed round fails the run; the final document check is moot
	}
	for i := range ops {
		o := &ops[i]
		r.liveDocs += len(o.adds) - len(o.dels)
		r.liveBytes += o.addBytes() - o.delBytes
	}
}

// setUpAll sets up reps times, keeps the last fixture and returns every
// set-up time.
func (r *run) setUpAll(ctx context.Context, reps, slices int, snapshot bool) ([]float64, error) {
	var err error
	if r.dir, err = os.MkdirTemp(r.e.scratch, r.sp.name+"-"); err != nil {
		return nil, err
	}
	var times []float64
	for i := 0; i < reps; i++ {
		dir := fmt.Sprintf("%s/%d", r.dir, i)
		last := i == reps-1
		fx, err := r.e.setUp(ctx, r.sp, r.seed, slices, dir, last, snapshot)
		if err != nil {
			return nil, err
		}
		times = append(times, fx.setupSeconds())
		if last {
			r.fx = fx
			break
		}
		fx.srv.close()
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	r.liveDocs, r.liveBytes = r.fx.docs, r.fx.userBytes
	return times, nil
}

// checkShape compares what the warm-up round did with what the workload
// was built to do, and warns loudly when a later change has moved the
// workload off the layer it is meant to stress.
func (r *run) checkShape(warm roundStats, before, after counters) {
	fx := r.fx
	switch r.sp.name {
	case "xmark_read":
		if m := median(warm.cands); m < 1000 {
			r.warn("median candidates/query is %.0f, want >= 1000 (refinement no longer dominates)", m)
		}
		if fx.pages[0] <= 256 {
			r.warn("B-tree has %d pages, want > 256 (index now fits the pager cache)", fx.pages[0])
		}
	case "bib_scatter", "bib_mixed":
		if m := median(warm.cands); m > 50 {
			r.warn("median candidates/query is %.0f, want <= 50 (refinement now matters)", m)
		}
		for i, p := range fx.pages {
			if p >= 256 {
				r.warn("shard %d B-tree has %d pages, want < 256 (index no longer fits the pager cache)", i, p)
			}
		}
	case "xmark_build":
		// The maintainer evaluates its triggers once a second, so a round
		// sees about one checkpoint per second whatever -checkpoint-ops is.
		if n := after.Checkpoints - before.Checkpoints; n < 1 {
			r.warn("%d checkpoints in the warm-up round, want >= 1", n)
		}
	}
	if r.sp.readOnly {
		if w := (after.Storage.BytesWritten - before.Storage.BytesWritten) + (after.BTree.PageWrites - before.BTree.PageWrites) + (after.IngestBatches - before.IngestBatches); w != 0 {
			r.warn("read-only workload wrote (%d heap bytes + page writes + ingest batches)", w)
		}
	}
}

// close stops the server, if it still runs, and removes the run's data.
func (r *run) close() {
	if r.fx != nil {
		r.fx.srv.close()
	}
	_ = os.RemoveAll(r.dir)
}

// finish ends a run's server side: on xmark_build the crash check, then
// for every workload the graceful drain, the stored-bytes measurement and
// the final verification. It returns failed checks and the reopen time.
func (r *run) finish(ctx context.Context) (failed int, reopen time.Duration, disk int64, err error) {
	srv := r.fx.srv
	if r.sp.writeOnly {
		// Crash: every acknowledged document must survive a SIGKILL. The
		// WAL is checkpointed first, because a fixserve killed with
		// evicted-but-uncheckpointed B-tree pages on disk can spin forever
		// in recovery (bench/README.md, "Known product defects"), and a
		// benchmark run must end.
		st, body, err := sideChannel("POST", "http://"+srv.addr+"/admin/checkpoint")
		if err != nil {
			return 0, 0, 0, fmt.Errorf("checkpoint before the crash: %w", err)
		}
		if st != 200 {
			return 0, 0, 0, fmt.Errorf("checkpoint before the crash: status %d: %s", st, body)
		}
		srv.kill()
		t0 := time.Now()
		if err := srv.launch(ctx); err != nil {
			return 0, 0, 0, fmt.Errorf("restart after SIGKILL: %w", err)
		}
		reopen = time.Since(t0)
		c, err := srv.counters()
		if err != nil {
			return 0, 0, 0, err
		}
		if c.Documents != r.liveDocs {
			fmt.Fprintf(os.Stderr, "fixload: %s: %d documents after SIGKILL and restart, %d were acknowledged\n", r.sp.name, c.Documents, r.liveDocs)
			failed += max(r.liveDocs-c.Documents, 1)
		}
	}
	if err := srv.drain(); err != nil {
		return failed, reopen, 0, fmt.Errorf("draining fixserve: %w", err)
	}
	if disk, err = dirBytes(r.fx.dir); err != nil {
		return failed, reopen, 0, err
	}
	if !r.sp.readOnly {
		bad, err := verifyFinal(ctx, r.sp, r.fx.dir, r.liveDocs)
		if err != nil {
			return failed, reopen, disk, err
		}
		failed += bad
	}
	return failed, reopen, disk, nil
}

// runE2E is the end-to-end protocol: set-ups, one discarded warm-up
// round, the measured rounds, drain and verification. The timing
// metrics are the quiet ones (quietMetrics); what the rounds observed is
// reported beside them.
func runE2E(ctx context.Context, e *env, sp spec, seed int64, seconds int) (*result, error) {
	r := &run{e: e, sp: sp, seed: seed, rounds: roundsFor(seconds)}
	r.res = &result{Workload: sp.name, Seed: seed, Rounds: r.rounds, Metrics: map[string]metric{}, Spread: map[string]float64{}}
	defer r.close()
	r.warnKnownDefects()
	setups, err := r.setUpAll(ctx, sp.setupReps(), r.rounds+1, false)
	if err != nil {
		return nil, err
	}
	if r.lists, err = r.fx.buildRounds(seed, r.rounds+1, false); err != nil {
		return nil, err
	}
	expected := r.fx.expected
	if !sp.readOnly {
		expected = nil // counts move with the data; verified after the drain
	}

	before, err := r.fx.srv.counters()
	if err != nil {
		return nil, err
	}
	warm, err := playRound(r.fx.srv, r.list(0), expected, true)
	if err != nil {
		return nil, err
	}
	after, err := r.fx.srv.counters()
	if err != nil {
		return nil, err
	}
	r.account(r.list(0), warm)
	r.checkShape(warm, before, after)
	r.res.Attempted, r.res.Failed = len(r.list(0)), warm.failed

	var rounds []roundStats
	var played [][]op
	for k := 1; k <= r.rounds; k++ {
		rs, err := playRound(r.fx.srv, r.list(k), expected, false)
		if err != nil {
			return nil, err
		}
		r.account(r.list(k), rs)
		rounds, played = append(rounds, rs), append(played, r.list(k))
		r.res.Attempted += len(r.list(k))
		r.res.Failed += rs.failed
	}
	r.res.RoundOps = len(r.list(1))
	rss, err := procPeakRSSMB(r.fx.srv.pid)
	if err != nil {
		return nil, err
	}
	bad, _, disk, err := r.finish(ctx)
	if err != nil {
		return nil, err
	}
	r.res.Failed += bad
	r.res.Attempted += bad

	vals := perRound(rounds)
	quietLat, quietCPU := quietByClass(played, rounds)
	quiet := quietMetrics(r.list(1), quietLat, quietCPU)
	r.res.Observed = map[string]float64{}
	for name, v := range vals {
		r.res.Observed[name] = median(v)
		r.res.Spread[name] = iqrPct(v)
	}
	vals["setup_s"] = setups
	r.res.PerRound = vals
	r.res.Ungated = map[string]metric{"server_cpu_ms_per_op": {quiet["server_cpu_ms_per_op"], "ms"}}
	for _, mu := range e2eUnits {
		name, unit := mu[0], mu[1]
		switch name {
		case "setup_s":
			r.res.Metrics[name] = metric{median(setups), unit}
			r.res.Spread[name] = iqrPct(setups)
		case "server_rss_mb":
			r.res.Metrics[name] = metric{rss, unit}
		case "disk_bytes_per_user_byte":
			r.res.Metrics[name] = metric{float64(disk) / float64(r.liveBytes), unit}
		default:
			r.res.Metrics[name] = metric{quiet[name], unit}
		}
	}
	return r.res, nil
}

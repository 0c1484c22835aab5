package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"

	"github.com/fix-index/fix/internal/collection"
	"github.com/fix-index/fix/internal/datagen"
	"github.com/fix-index/fix/internal/xmltree"
)

func TestQuantiles(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	if got := median(v); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(v, 0.25); got != 2 {
		t.Errorf("p25 = %v, want 2", got)
	}
	if got := quantile([]float64{1, 2, 3, 4}, 0.5); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
	if v[0] != 5 {
		t.Error("quantile sorted its argument in place")
	}
	// IQR of 1..5 is 4-2 = 2, two thirds of the median 3.
	if got := iqrPct(v); math.Abs(got-200.0/3) > 1e-9 {
		t.Errorf("iqrPct = %v, want 66.67", got)
	}
}

// roundSizes is every workload's operations per round.
func roundSizes() map[string]int {
	batches := 0
	for _, k := range xmarkBuildKinds {
		batches += k.batches
	}
	return map[string]int{
		"xmark_read":  xmarkReadReps * (len(xmarkPaperQueries) + len(xmarkTwigs)),
		"bib_scatter": bibScatterReps * len(bibTemplates),
		"bib_mixed":   5 * bibMixedIngest,
		"xmark_build": batches,
	}
}

// A reported tail needs at least ten samples beyond it: a round holds
// 250 operations or more, so its p95 has a dozen. And a class's quiet
// value is the smallest of its samples, which repeats only when they are
// many.
func TestRoundsSupportTheirPercentiles(t *testing.T) {
	for name, n := range roundSizes() {
		if n < 250 || n/20 < 10 {
			t.Errorf("%s: a round of %d ops has %d beyond its p95, want at least 10 (and 250 ops)", name, n, n/20)
		}
	}
	rounds := roundsFor(defaultSeconds)
	for _, sp := range specs {
		fx := testFixture(t, sp.name, 1, 1)
		lists, err := fx.buildRounds(1, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		perClass := map[int]int{}
		for _, o := range lists[0] {
			perClass[o.class]++
		}
		for c, n := range perClass {
			if n*rounds < 140 {
				t.Errorf("%s: class %d has %d samples in %d rounds, want at least 140", sp.name, c, n*rounds, rounds)
			}
		}
	}
}

// The observed metrics are per round; the median over rounds ignores a
// minority of disturbed rounds.
func TestMedianOfRounds(t *testing.T) {
	rounds := []roundStats{}
	for i := 0; i < 9; i++ {
		rs := roundStats{wall: 1e9, cpu: 0.5}
		for j := 0; j < 200; j++ {
			rs.lat = append(rs.lat, 5e6)
		}
		if i%4 == 0 { // three slow rounds
			rs.wall = 2e9
		}
		rounds = append(rounds, rs)
	}
	vals := perRound(rounds)
	if got := median(vals["ops_per_s"]); got != 200 {
		t.Errorf("median ops/s = %v, want 200", got)
	}
	if got := median(vals["op_p95_ms"]); got != 5 {
		t.Errorf("median p95 = %v, want 5", got)
	}
	if got := median(vals["server_cpu_ms_per_op"]); got != 2.5 {
		t.Errorf("median cpu/op = %v, want 2.5", got)
	}
}

// The reported metrics are quiet ones: a class of operations counts with
// the fastest of its samples, however slow the rest were.
func TestQuietMetrics(t *testing.T) {
	// Two classes, nine cheap operations for every expensive one, 200
	// samples of the expensive class per round; all but a twentieth of
	// the samples are disturbed, those of the second round three times
	// as much.
	var list []op
	for i := 0; i < 2000; i++ {
		list = append(list, op{class: i % 20 / 18})
	}
	round := func(factor float64) roundStats {
		var rs roundStats
		seen := map[int]int{}
		for _, o := range list {
			lat, cpu := 1e6, 0.5e6
			if o.class == 1 {
				lat, cpu = 10e6, 8e6
			}
			if seen[o.class]++; seen[o.class] > 10+80*(1-o.class) { // only a twentieth of a class is undisturbed
				lat, cpu = lat*factor*1.5, cpu*factor*1.5
			}
			rs.lat, rs.cpuOp = append(rs.lat, time.Duration(lat)), append(rs.cpuOp, time.Duration(cpu))
		}
		return rs
	}
	lat, cpu := quietByClass([][]op{list, list}, []roundStats{round(1), round(3)})
	if lat[0] != 1 || lat[1] != 10 || cpu[0] != 0.5 || cpu[1] != 8 {
		t.Fatalf("quiet latency %v, quiet CPU %v; want 1 and 10, 0.5 and 8", lat, cpu)
	}
	m := quietMetrics(list, lat, cpu)
	if m["op_p50_ms"] != 1 || m["op_p95_ms"] != 10 {
		t.Errorf("p50 %v, p95 %v; want 1 and 10", m["op_p50_ms"], m["op_p95_ms"])
	}
	if want := 1000 / (0.9*1 + 0.1*10); math.Abs(m["ops_per_s"]-want) > 1e-9 {
		t.Errorf("ops/s %v, want %v", m["ops_per_s"], want)
	}
	if want := 0.9*0.5 + 0.1*8; math.Abs(m["server_cpu_ms_per_op"]-want) > 1e-9 {
		t.Errorf("cpu/op %v, want %v", m["server_cpu_ms_per_op"], want)
	}
}

func TestProcParsing(t *testing.T) {
	status := []byte("Name:\tfixserve\nVmPeak:\t 1238792 kB\nVmHWM:\t   30084 kB\nVmRSS:\t   29000 kB\n")
	if kb, err := parseKeyed(status, "VmHWM"); err != nil || kb != 30084 {
		t.Errorf("VmHWM = %d, %v; want 30084", kb, err)
	}
	io := []byte("rchar: 100\nwchar: 2048\nsyscr: 1\nsyscw: 2\nread_bytes: 0\nwrite_bytes: 8192\ncancelled_write_bytes: 0\n")
	if n, err := parseKeyed(io, "write_bytes"); err != nil || n != 8192 {
		t.Errorf("write_bytes = %d, %v; want 8192", n, err)
	}
	if _, err := parseKeyed(io, "VmHWM"); err == nil {
		t.Error("parseKeyed found a key that is not there")
	}
	// The CPU-time clock of a process: it advances while the process
	// computes, at a resolution far below a clock tick.
	c0, err := procCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	x := 0
	for t0 := time.Now(); time.Since(t0) < 20*time.Millisecond; {
		x++
	}
	c1, err := procCPU(os.Getpid())
	if d := c1 - c0; err != nil || d < 5*time.Millisecond || d > time.Second || x == 0 {
		t.Errorf("20 ms of spinning consumed %v of CPU (%v)", d, err)
	}
	if _, err := procCPU(1 << 27); err == nil {
		t.Error("procCPU read the clock of a process that does not exist")
	}
}

// testFixture is a fixture as set-up would leave it, without a server.
func testFixture(t *testing.T, name string, seed int64, slices int) *fixture {
	t.Helper()
	sp, ok := specByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	fx := &fixture{sp: sp}
	var err error
	switch name {
	case "bib_mixed":
		fx.nextRec = make([]uint32, bibShards)
		for _, d := range dblpRecords(bibDataSeed, 0.02) {
			label, _ := xmltree.ParseString(d)
			shard := collection.ShardForLabel(label.Label, bibShards)
			fx.live = append(fx.live, liveDoc{id: collection.GlobalID(shard, fx.nextRec[shard]), size: len(d)})
			fx.nextRec[shard]++
		}
		var stream []string
		stream, err = bibStream(seed, slices*bibMixedIngest*bibIngestAdds)
		fx.stream = [][]string{stream}
	case "xmark_build":
		fx.docs = 100
		fx.stream, err = xmarkStream(seed, slices)
	}
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

func requestStream(t *testing.T, name string, seed int64) []byte {
	t.Helper()
	rounds, err := testFixture(t, name, seed, 2).buildRounds(seed, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for _, r := range rounds {
		for _, o := range r {
			b.Write(o.req)
		}
	}
	return b.Bytes()
}

func TestSeededRequestStream(t *testing.T) {
	for _, sp := range specs {
		a, b, c := requestStream(t, sp.name, 7), requestStream(t, sp.name, 7), requestStream(t, sp.name, 8)
		if len(a) == 0 {
			t.Errorf("%s: empty request stream", sp.name)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave two different request streams", sp.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", sp.name)
		}
	}
}

// The populations are pinned: two seeds ingest the same documents, in
// another order.
func TestSeedsPermuteOnePopulation(t *testing.T) {
	population := func(name string, seed int64) []string {
		var docs []string
		for _, s := range testFixture(t, name, seed, 2).stream {
			docs = append(docs, s...)
		}
		sort.Strings(docs)
		return docs
	}
	for _, name := range []string{"bib_mixed", "xmark_build"} {
		a, b := population(name, 7), population(name, 8)
		if len(a) == 0 || len(a) != len(b) {
			t.Fatalf("%s: %d and %d documents", name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: seeds 7 and 8 ingest different documents", name)
			}
		}
	}
}

// Every request of xmark_build holds documents of one kind, and every
// round the same number of requests of each kind.
func TestXMarkBuildClasses(t *testing.T) {
	fx := testFixture(t, "xmark_build", 3, 2)
	rounds, err := fx.buildRounds(3, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	next := uint64(fx.docs)
	for _, r := range rounds {
		perKind := map[int]int{}
		for _, o := range r {
			kind := o.class - len(fx.sp.templates)
			perKind[kind]++
			for j, d := range o.adds {
				n, err := xmltree.ParseString(d)
				if err != nil || n.Label != xmarkBuildKinds[kind].label {
					t.Fatalf("a %s request holds a %q document (%v)", xmarkBuildKinds[kind].label, n.Label, err)
				}
				if o.ids[j] != next {
					t.Fatalf("document predicted as %d, want %d", o.ids[j], next)
				}
				next++
			}
		}
		for kind, k := range xmarkBuildKinds {
			if perKind[kind] != k.batches {
				t.Errorf("round holds %d %s requests, want %d", perKind[kind], k.label, k.batches)
			}
		}
	}
}

// Every ingest of bib_mixed deletes the oldest live documents and keeps
// the live set constant; IDs are predicted from the shard layout.
func TestBibMixedStream(t *testing.T) {
	fx := testFixture(t, "bib_mixed", 3, 2)
	rounds, err := fx.buildRounds(3, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	next := 0
	for _, r := range rounds {
		if len(r) != 5*bibMixedIngest {
			t.Fatalf("round has %d ops, want %d", len(r), 5*bibMixedIngest)
		}
		for i, o := range r {
			if o.isIngest() != (i%5 == 4) {
				t.Fatalf("op %d: ingest=%v, want 4 queries then 1 ingest", i, o.isIngest())
			}
			if !o.isIngest() {
				continue
			}
			if len(o.adds) != bibIngestAdds || len(o.dels) != bibIngestAdds || len(o.ids) != bibIngestAdds {
				t.Fatalf("ingest op has %d adds, %d deletes", len(o.adds), len(o.dels))
			}
			for _, id := range o.dels {
				if id != fx.live[next].id {
					t.Fatalf("delete of %d, the oldest live document is %d", id, fx.live[next].id)
				}
				next++
			}
			for _, id := range o.ids {
				if seen[id] {
					t.Fatalf("ID %d predicted twice", id)
				}
				seen[id] = true
			}
		}
	}
}

// Splitting loses nothing: every entity parses back to itself, and the
// entities' elements plus the wrappers around them are the site's.
func TestEntitySplitting(t *testing.T) {
	site := datagen.XMark(datagen.Config{Seed: 5, Scale: 0.02})
	docs := splitEntities(site, xmarkEntityLabels)
	entityElems, want := 0, 0
	site.Walk(func(n *xmltree.Node) bool {
		if xmarkEntityLabels[n.Label] {
			want++
		}
		return true
	})
	if len(docs) != want || want == 0 {
		t.Fatalf("split into %d documents, the site has %d entities", len(docs), want)
	}
	for _, d := range docs {
		n, err := xmltree.ParseString(d)
		if err != nil {
			t.Fatalf("entity does not parse: %v\n%s", err, d)
		}
		if !xmarkEntityLabels[n.Label] {
			t.Fatalf("entity with root %q", n.Label)
		}
		if back := xmltree.MarshalString(n); back != d {
			t.Fatalf("entity does not round-trip:\n%s\n%s", d, back)
		}
		entityElems += n.CountElements()
	}
	// site + regions + 6 region names + categories + open_auctions +
	// closed_auctions + people wrap the entities.
	if got, total := entityElems+12, site.CountElements(); got != total {
		t.Errorf("entities hold %d elements + 12 wrappers, the site has %d", entityElems, total)
	}
	for _, d := range dblpRecords(5, 0.005) {
		n, err := xmltree.ParseString(d)
		if err != nil {
			t.Fatalf("record does not parse: %v", err)
		}
		if back := xmltree.MarshalString(n); back != d {
			t.Fatalf("record does not round-trip:\n%s\n%s", d, back)
		}
	}
}

func TestCheckResponse(t *testing.T) {
	q := &op{tmpl: 1}
	body := []byte(`{"collection": "bib", "query": "//a", "count": 7, "candidates": 12, "shards": [{"shard": 0, "count": 3}]}`)
	if n, ok := intAfter(body, `"candidates":`); !ok || n != 12 {
		t.Errorf("candidates = %d, %v", n, ok)
	}
	if !checkResponse(q, []int{0, 7}, 200, body) {
		t.Error("right count rejected")
	}
	if checkResponse(q, []int{0, 8}, 200, body) {
		t.Error("wrong count accepted")
	}
	if checkResponse(q, nil, 429, body) {
		t.Error("429 accepted")
	}
	if checkResponse(q, nil, 200, []byte(`{"count": 7, "partial": true}`)) {
		t.Error("partial result accepted")
	}
	in := &op{tmpl: -1, adds: []string{"<a/>", "<b/>"}, ids: []uint64{4, 1 << 32}, dels: []uint64{9}}
	if !checkResponse(in, nil, 200, []byte(`{"ids": [4, 4294967296], "added": 2, "deleted": 1, "ingest_lag": 3}`)) {
		t.Error("right ingest acknowledgement rejected")
	}
	if checkResponse(in, nil, 200, []byte(`{"ids": [4, 5], "added": 2, "deleted": 1}`)) {
		t.Error("unexpected IDs accepted")
	}
}

func TestWorsening(t *testing.T) {
	if w := worsening("ops_per_s", 100, 90); math.Abs(w-0.1) > 1e-12 {
		t.Errorf("throughput 100→90 worsens by %v, want 0.1", w)
	}
	if w := worsening("op_p50_ms", 4, 5); math.Abs(w-0.25) > 1e-12 {
		t.Errorf("latency 4→5 worsens by %v, want 0.25", w)
	}
	if w := worsening("op_p50_ms", 5, 4); w >= 0 {
		t.Errorf("latency 5→4 worsens by %v, want an improvement", w)
	}
}

// BENCHMARK.json and the harness name the same workloads, metrics,
// units and bounds.
func TestBenchmarkJSONInStep(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the bench directory")
	}
	var bj struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the harness defaults to %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Workloads) != len(specs) {
		t.Fatalf("%d workloads, the harness has %d", len(bj.Workloads), len(specs))
	}
	for i, w := range bj.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d is %q, the harness has %q", i, w.Name, specs[i].name)
		}
	}
	if len(bj.EndToEnd) != len(e2eUnits) {
		t.Fatalf("%d end-to-end metrics, the harness reports %d", len(bj.EndToEnd), len(e2eUnits))
	}
	for i, m := range bj.EndToEnd {
		if m.Name != e2eUnits[i][0] || m.Unit != e2eUnits[i][1] {
			t.Errorf("end-to-end metric %d is %s [%s], the harness reports %s [%s]", i, m.Name, m.Unit, e2eUnits[i][0], e2eUnits[i][1])
		}
		if m.Bound != bounds[m.Name] {
			t.Errorf("%s: bound %v, the A/A check uses %v", m.Name, m.Bound, bounds[m.Name])
		}
		if (m.Better == "higher") != higherIsBetter[m.Name] {
			t.Errorf("%s: better=%s disagrees with the A/A check", m.Name, m.Better)
		}
	}
	if len(bj.PerLayer) != len(layerUnits) {
		t.Fatalf("%d per-layer metrics, the harness reports %d", len(bj.PerLayer), len(layerUnits))
	}
	for i, m := range bj.PerLayer {
		if m.Name != layerUnits[i][0] || m.Unit != layerUnits[i][1] {
			t.Errorf("per-layer metric %d is %s [%s], the harness reports %s [%s]", i, m.Name, m.Unit, layerUnits[i][0], layerUnits[i][1])
		}
	}
}

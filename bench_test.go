// Benchmarks regenerating every table and figure of the paper's
// evaluation (§6) at a reduced scale, plus the micro-benchmarks behind
// the §3.3 eigenvalue-cost claims. Run with
//
//	go test -bench=. -benchmem
//
// and see cmd/fixbench for full-scale, human-readable reproductions.
package fix_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/fix-index/fix/fix"
	"github.com/fix-index/fix/internal/core"
	"github.com/fix-index/fix/internal/datagen"
	"github.com/fix-index/fix/internal/eigen"
	"github.com/fix-index/fix/internal/experiments"
	"github.com/fix-index/fix/internal/nok"
	"github.com/fix-index/fix/internal/obs"
	"github.com/fix-index/fix/internal/xmltree"
	"github.com/fix-index/fix/internal/xpath"
)

// benchScale keeps one benchmark iteration in the tens of milliseconds;
// fixbench runs the same code at scale 1.0.
const benchScale = 0.04

var (
	envMu    sync.Mutex
	envCache = map[datagen.Dataset]*experiments.Env{}
)

func benchEnv(b *testing.B, ds datagen.Dataset) *experiments.Env {
	b.Helper()
	envMu.Lock()
	defer envMu.Unlock()
	if env, ok := envCache[ds]; ok {
		return env
	}
	env, err := experiments.Setup(ds, datagen.Config{Seed: 42, Scale: benchScale})
	if err != nil {
		b.Fatal(err)
	}
	envCache[ds] = env
	return env
}

// BenchmarkTable1Construction measures index construction (Table 1 ICT):
// one full unclustered build per iteration. Beside the time it reports
// the index bytes per entry and the share of the wall time spent putting
// entries into the B-tree, and it fails when an index of a thousand
// entries or more (below that the meta and root pages dominate) exceeds
// 14.9 B/entry, 1.1 × the largest of them: a leaf cell is three length
// bytes, the bytes its key does not share with the key before it — 2 to 7
// of 28 on the four datasets — and a value of two uvarints, 2 to 4 bytes
// here, and the loader packs pages full (9.0 on DBLP, 11.8 on XMark, 13.5
// on Treebank), so a build that has gone back to half-full pages, to whole
// keys or to 9-byte values (14.4, 17.3, 19.2) fails without any timing
// gate.
func BenchmarkTable1Construction(b *testing.B) {
	for _, ds := range datagen.AllDatasets {
		b.Run(string(ds), func(b *testing.B) {
			env := benchEnv(b, ds)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix, err := core.Build(env.Store, core.Options{
					DepthLimit:   env.DepthLimit(),
					PaperPruning: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				if ix.Entries() == 0 {
					b.Fatal("empty index")
				}
				perEntry := float64(ix.SizeBytes()) / float64(ix.Entries())
				if ix.Entries() >= 1000 && perEntry > 14.9 {
					b.Fatalf("%d entries in %d bytes: %.1f B/entry, want at most 14.9", ix.Entries(), ix.SizeBytes(), perEntry)
				}
				b.ReportMetric(perEntry, "B/entry")
				b.ReportMetric(ix.Stats().Insert.Seconds()/ix.Stats().Wall.Seconds(), "insert-share")
			}
		})
	}
}

// BenchmarkTable2Metrics evaluates the representative selectivity queries
// (Table 2) against a prebuilt index.
func BenchmarkTable2Metrics(b *testing.B) {
	for _, ds := range datagen.AllDatasets {
		b.Run(string(ds), func(b *testing.B) {
			env := benchEnv(b, ds)
			if _, err := env.Unclustered(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Table2(context.Background(), env); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig5RandomQueries measures the random-workload metric sweep
// (Figure 5) with a reduced query count.
func BenchmarkFig5RandomQueries(b *testing.B) {
	env := benchEnv(b, datagen.XMarkDataset)
	if _, err := env.Unclustered(); err != nil {
		b.Fatal(err)
	}
	if _, err := env.SoundIndex(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(context.Background(), env, 20); err != nil {
			b.Fatal(err)
		}
	}
}

// The Figure 6 benchmarks run the four-system runtime comparison on each
// dataset of §6.3.
func benchFig6(b *testing.B, ds datagen.Dataset) {
	env := benchEnv(b, ds)
	// Build everything outside the timer.
	if _, err := env.Unclustered(); err != nil {
		b.Fatal(err)
	}
	if _, err := env.Clustered(); err != nil {
		b.Fatal(err)
	}
	if _, err := env.FB(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig6(context.Background(), env)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.NoK.Count != r.FIXClus.Count {
				b.Fatalf("%s: result mismatch", r.Query)
			}
		}
	}
}

func BenchmarkFig6XMark(b *testing.B)    { benchFig6(b, datagen.XMarkDataset) }
func BenchmarkFig6Treebank(b *testing.B) { benchFig6(b, datagen.TreebankDataset) }
func BenchmarkFig6DBLP(b *testing.B)     { benchFig6(b, datagen.DBLPDataset) }

// BenchmarkFig7Values runs the §6.4 value-predicate workload (Figures 7a
// and 7b).
func BenchmarkFig7Values(b *testing.B) {
	env := benchEnv(b, datagen.DBLPDataset)
	if _, _, err := env.ValueIndex(experiments.DefaultBeta); err != nil {
		b.Fatal(err)
	}
	if _, err := env.FB(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig7(context.Background(), env)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.FB.Count != r.FIXVal.Count {
				b.Fatalf("%s: result mismatch", r.Query)
			}
		}
	}
}

// BenchmarkBetaSweep measures the §6.4 construction-cost tradeoff.
func BenchmarkBetaSweep(b *testing.B) {
	env := benchEnv(b, datagen.DBLPDataset)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.BetaSweep(env, []uint32{10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblations measures the design-choice ablations from DESIGN.md.
func BenchmarkAblations(b *testing.B) {
	env := benchEnv(b, datagen.XMarkDataset)
	if _, err := env.Unclustered(); err != nil {
		b.Fatal(err)
	}
	if _, err := env.SoundIndex(); err != nil {
		b.Fatal(err)
	}
	b.Run("root-label", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := experiments.AblationRootLabel(context.Background(), env); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pruning-mode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := experiments.AblationPruningMode(context.Background(), env); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Eigenvalue computation cost (paper §3.3: "sub-millisecond for a dense
// 10×10 and sub-second for a dense 300×300 on a Pentium 4").
func randomSkew(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			w := float64(1 + rng.Intn(40))
			m[i][j] = w
			m[j][i] = -w
		}
	}
	return m
}

func benchEigenDense(b *testing.B, n int) {
	m := randomSkew(n, int64(n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eigen.SkewExtremes(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEigenDense10(b *testing.B)  { benchEigenDense(b, 10) }
func BenchmarkEigenDense100(b *testing.B) { benchEigenDense(b, 100) }
func BenchmarkEigenDense300(b *testing.B) { benchEigenDense(b, 300) }

// BenchmarkEigenSparsePower measures the sparse σmax path used for
// near-budget subpatterns (up to the paper's 3000-edge cap).
func BenchmarkEigenSparsePower(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const n, nEdges = 1500, 3000
	edges := make([]eigen.Edge, 0, nEdges)
	for len(edges) < nEdges {
		i := rng.Intn(n - 1)
		j := i + 1 + rng.Intn(n-i-1)
		edges = append(edges, eigen.Edge{From: int32(i), To: int32(j), W: float64(1 + rng.Intn(40))})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if eigen.SkewMaxSparse(n, edges) <= 0 {
			b.Fatal("degenerate result")
		}
	}
}

// BenchmarkParallelBuild measures index construction across worker
// counts (the fixbench -exp parallel sweep as a testing.B target). The
// built index is identical for every worker count; only the wall time
// should move.
func BenchmarkParallelBuild(b *testing.B) {
	env := benchEnv(b, datagen.XMarkDataset)
	for _, w := range experiments.SweepWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ix, err := core.Build(env.Store, core.Options{
					DepthLimit:   env.DepthLimit(),
					PaperPruning: true,
					Workers:      w,
				})
				if err != nil {
					b.Fatal(err)
				}
				if ix.Entries() == 0 {
					b.Fatal("empty index")
				}
			}
		})
	}
}

// BenchmarkQueryPipeline isolates the pruning+refinement pipeline of
// Algorithm 2 for one representative query per dataset. It fails when a
// steady-state query on a depth-limited dataset (dblp, xmark, treebank)
// allocates more than 400 times: the probe reads B-tree pages in place
// and appends to a pooled candidate list, so those queries cost 85–160
// allocations whatever they scan, against 411–1 740 when every entry read
// was copied out of its page — a change that sends the probe back through
// a copying decode fails here without any timing gate. tcmd is exempt (its
// allocations are per-record fetches, not the probe) and only reported.
func BenchmarkQueryPipeline(b *testing.B) {
	for _, ds := range datagen.AllDatasets {
		b.Run(string(ds), func(b *testing.B) {
			env := benchEnv(b, ds)
			ix, err := env.Unclustered()
			if err != nil {
				b.Fatal(err)
			}
			q, err := xpath.Parse(experiments.RepresentativeQueries[ds][1].XPath)
			if err != nil {
				b.Fatal(err)
			}
			g := env.Frozen(ix)
			run := func() {
				if _, err := g.QueryGoverned(context.Background(), q, nil, core.Limits{}); err != nil {
					b.Fatal(err)
				}
			}
			// AllocsPerRun warms the pools with one untimed call first.
			if allocs := testing.AllocsPerRun(10, run); ds != datagen.TCMDDataset && allocs > 400 {
				b.Fatalf("%v allocs per query, want at most 400", allocs)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}

// ingestRequestAllocCeiling is 1.5 times what BenchmarkIngestRequest
// measured when Put began editing leaves in place: ≈3 100 allocations per
// request, nearly all of them the parse, bisimulation and eigenvalues of
// its four documents. Decoding every page from the root to the leaf and
// re-encoding the leaf for each index entry made it ≈19 500.
const ingestRequestAllocCeiling = 4700

// ingestIndexBytesPerEntryCeiling gates how small the index stays that
// inserts grow: 1.1 × the 13.26 index bytes per entry the benchmark ends at
// after four passes over its stream (9.97 after 3 000 requests). With a
// value of a flag byte and a big-endian u64 the same run ends at 22.61, and
// with whole keys in the cells as well at 56.75. (Cut at mid wherever the
// new key falls it ends at 13.05: the gate on the leaf split's run rule is
// fix.TestIncrementalIndexFill.)
const ingestIndexBytesPerEntryCeiling = 14.6

// BenchmarkIngestRequest measures the served write path below HTTP: one
// request of four XMark entity documents — parsed once by AddOp,
// submitted by one Ingester.Apply — into a depth-6 index on disk, WAL
// fsync included. It fails when a request is not exactly one group
// commit, or allocates more than ingestRequestAllocCeiling times: a
// committer that splits submissions again, or an insert sent back through
// the decoding path, fails here without any timing gate. After the timed
// requests it reports the index bytes per entry, and fails above
// ingestIndexBytesPerEntryCeiling.
func BenchmarkIngestRequest(b *testing.B) {
	var docs []string
	var split func(n *xmltree.Node)
	split = func(n *xmltree.Node) {
		for _, c := range n.Children {
			switch c.Label {
			case "item", "person", "open_auction", "closed_auction":
				docs = append(docs, xmltree.MarshalString(c))
			default:
				split(c)
			}
		}
	}
	split(datagen.XMark(datagen.Config{Seed: 42, Scale: 0.05}))
	rand.New(rand.NewSource(42)).Shuffle(len(docs), func(i, j int) { docs[i], docs[j] = docs[j], docs[i] })
	seed, stream := docs[:len(docs)/2], docs[len(docs)/2:]

	db, err := fix.Create(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = db.Close() }()
	for _, d := range seed {
		if _, err := db.AddDocumentString(d); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.BuildIndexWith(context.Background(), fix.DepthLimit(6)); err != nil {
		b.Fatal(err)
	}
	if err := db.Save(); err != nil {
		b.Fatal(err)
	}
	ing := db.NewIngester(fix.IngestConfig{})
	defer func() { _ = ing.Close() }()
	next := 0
	request := func() {
		ops := make([]fix.Op, 4)
		for i := range ops {
			if ops[i], err = db.AddOp(stream[next%len(stream)]); err != nil {
				b.Fatal(err)
			}
			next++
		}
		if _, err := ing.Apply(context.Background(), ops); err != nil {
			b.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(20, request); allocs > ingestRequestAllocCeiling {
		b.Fatalf("%v allocs per request, want at most %d", allocs, ingestRequestAllocCeiling)
	}
	commits := db.Metrics().IngestBatches
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		request()
	}
	b.StopTimer()
	perOp := float64(db.Metrics().IngestBatches-commits) / float64(b.N)
	if perOp != 1 {
		b.Fatalf("%v group commits per request, want 1", perOp)
	}
	b.ReportMetric(perOp, "commits/op")
	for next < 4*len(stream) { // at -benchtime 1x too, most of the index is leaves the inserts split
		request()
	}
	m := db.Metrics()
	perEntry := float64(m.IndexSizeBytes) / float64(m.IndexEntries)
	if perEntry > ingestIndexBytesPerEntryCeiling {
		b.Fatalf("%.1f index bytes per entry after the ingest, want at most %v", perEntry, ingestIndexBytesPerEntryCeiling)
	}
	b.ReportMetric(perEntry, "index-B/entry")
}

// BenchmarkQueryTraceOverhead compares the same query untraced and
// traced. The untraced path is the overhead budget of the observability
// layer: it must match BenchmarkQueryPipeline (tracing off costs only a
// nil check per phase); the traced variant shows the price of the timer
// reads and stats snapshots a Trace query pays.
func BenchmarkQueryTraceOverhead(b *testing.B) {
	env := benchEnv(b, datagen.XMarkDataset)
	ix, err := env.Unclustered()
	if err != nil {
		b.Fatal(err)
	}
	q, err := xpath.Parse(experiments.RepresentativeQueries[datagen.XMarkDataset][1].XPath)
	if err != nil {
		b.Fatal(err)
	}
	g := env.Frozen(ix)
	b.Run("untraced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := g.QueryGoverned(context.Background(), q, nil, core.Limits{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("traced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr := &obs.Trace{}
			if _, err := g.QueryGoverned(context.Background(), q, tr, core.Limits{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkNokRefine isolates the refinement step of Algorithm 2: for
// each of the seven XMark queries of §6 (Table 2 and Figure 6) it runs
// the NoK matcher over exactly the candidates the index probe returns,
// with the subtrees fetched outside the timer. One op is one query's
// refinement; nodes/op is the matcher's visit count (obs nodes_visited),
// and allocs/op is the steady-state allocation of the pooled matcher.
func BenchmarkNokRefine(b *testing.B) {
	env, err := experiments.Setup(datagen.XMarkDataset, datagen.Config{Seed: 42, Scale: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	defer env.Close()
	ix, err := env.Unclustered()
	if err != nil {
		b.Fatal(err)
	}
	var queries [][2]string // name, XPath
	for _, q := range experiments.RepresentativeQueries[datagen.XMarkDataset] {
		queries = append(queries, [2]string{q.Name, q.XPath})
	}
	for _, q := range experiments.RuntimeQueries[datagen.XMarkDataset] {
		queries = append(queries, [2]string{q.Name, q.XPath})
	}
	type subtree struct {
		cur xmltree.Cursor
		ref xmltree.Ref
	}
	for _, q := range queries {
		b.Run(q[0], func(b *testing.B) {
			path, err := xpath.Parse(q[1])
			if err != nil {
				b.Fatal(err)
			}
			cands, _, err := env.Frozen(ix).CandidatesCtx(context.Background(), path)
			if err != nil {
				b.Fatal(err)
			}
			subtrees := make([]subtree, len(cands))
			for i, c := range cands {
				cur, ref, err := env.Store.ReadSubtree(c.Primary)
				if err != nil {
					b.Fatal(err)
				}
				subtrees[i] = subtree{cur, ref}
			}
			// Every element is an entry of the depth-limited index, so
			// the leading // is refined as / (Algorithm 2, lines 7-8).
			rq := path.Tree().Clone()
			rq.Axis = xpath.Child
			nq, err := nok.Compile(rq, env.Store.Dict())
			if err != nil {
				b.Fatal(err)
			}
			want, err := env.NoKScan(path)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			nodes := 0
			for i := 0; i < b.N; i++ {
				count := 0
				for _, s := range subtrees {
					n, visited := nq.Eval(s.cur, s.ref)
					count += n
					nodes += visited
				}
				if count != want {
					b.Fatalf("refined count %d, scan count %d", count, want)
				}
			}
			b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
		})
	}
}

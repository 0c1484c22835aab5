package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"github.com/fix-index/fix/fix"
	"github.com/fix-index/fix/internal/btree"
	"github.com/fix-index/fix/internal/collection"
	"github.com/fix-index/fix/internal/datagen"
	"github.com/fix-index/fix/internal/xmltree"
)

// Workload sizes. A round is a fixed, seeded list of operations sized to
// take about two seconds on the sandbox's one pinned vCPU, and holds at
// least 250 operations, so that the p95 over its operations has a dozen
// beyond it. The number of rounds follows --seconds; at BENCHMARK.json's
// 20 s a run measures ten rounds, and every class of operations (a
// query template, the ingest requests of one kind) is sampled 140 times
// or more.
const (
	xmarkReadScale = 0.5 // ≈77k depth-6 entries, B-tree ≈6 MB ≫ the 1 MiB pager cache
	xmarkReadReps  = 14  // × 21 templates = 294 ops per round

	bibScale       = 0.1 // ≈4 000 record documents
	bibShards      = 4
	bibScatterReps = 190 // × 16 templates = 3 040 ops per round
	bibMixedIngest = 80  // ingest requests per round, each beside 4 queries: 400 ops
	bibIngestAdds  = 4   // adds, and as many deletes, per ingest request

	xmarkBuildSeedScale = 0.25 // ≈2 460 entity documents under the bulk-built index
	// Documents per NDJSON ingest request (xmarkBuildKinds has the
	// requests per round). The issue asked for 8; with 4 a request takes
	// 4 ms, not 6, there are twice as many in a run, and their quiet
	// latency repeats to 6 % where that of 8 repeated to 10 %.
	xmarkBuildBatch = 4

	nominalRoundSeconds = 2
	indexDepth          = 6
)

// spec is one of the four named workloads; BENCHMARK.json and
// bench/README.md say why each exists.
type spec struct {
	name       string
	collection bool // fixserve -collections instead of -db
	readOnly   bool
	writeOnly  bool // no queries; ends with the SIGKILL-and-restart check
	templates  []string
}

var specs = []spec{
	{
		name:      "xmark_read",
		readOnly:  true,
		templates: append(append([]string(nil), xmarkPaperQueries...), xmarkTwigs...),
	},
	{
		name:       "bib_scatter",
		collection: true,
		readOnly:   true,
		templates:  bibTemplates,
	},
	{
		name:       "bib_mixed",
		collection: true,
		templates:  bibMixedTemplates,
	},
	{
		name:      "xmark_build",
		writeOnly: true,
		templates: xmarkPaperQueries,
	},
}

// dbDirs lists the database directories under a fixture's data
// directory: the -db directory itself, or the collection's shards.
func (sp spec) dbDirs(dir string) []string {
	if !sp.collection {
		return []string{dir}
	}
	dirs := make([]string, bibShards)
	for i := range dirs {
		dirs[i] = collection.ShardDir(filepath.Join(dir, "bib"), i)
	}
	return dirs
}

// shardOf is the shard the collection routes a document to (0 without a
// collection).
func (sp spec) shardOf(doc string) (int, error) {
	if !sp.collection {
		return 0, nil
	}
	label, err := fix.RootLabelString(doc)
	if err != nil {
		return 0, err
	}
	return collection.ShardForLabel(label, bibShards), nil
}

// route groups documents by the database they go to, one group per
// entry of dbDirs.
func (sp spec) route(docs []string) ([][]string, error) {
	n := 1
	if sp.collection {
		n = bibShards
	}
	byShard := make([][]string, n)
	for _, d := range docs {
		s, err := sp.shardOf(d)
		if err != nil {
			return nil, err
		}
		byShard[s] = append(byShard[s], d)
	}
	return byShard, nil
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// rounds derives the number of measured rounds from --seconds.
func roundsFor(seconds int) int {
	r := int(float64(seconds)/nominalRoundSeconds + 0.5)
	if r < 3 {
		r = 3
	}
	return r
}

// fixture is one completed set-up: data on disk, server running.
type fixture struct {
	sp        spec
	dir       string // the -db directory or the -collections root
	srv       *server
	prepare   time.Duration // generate + bulk build / preload
	start     time.Duration // exec fixserve until /readyz is 200
	userBytes int64         // XML bytes of the documents live after set-up
	docs      int           // documents live after set-up
	live      []liveDoc     // bib: live documents, oldest first
	nextRec   []uint32      // bib: next record number per shard
	stream    [][]string    // write workloads: documents to ingest, in order; xmark_build has one stream per kind
	expected  []int         // per template: exact count, from fix.ScanOnly
	pages     []int64       // B-tree pages per index (one per shard)
	snapshot  string        // trace runs: copy of dir taken before the server started
}

type liveDoc struct {
	id   uint64
	size int
}

// serverArgs is the fixed, recorded flush policy: fixserve defaults
// except the timers that would make counts depend on wall time.
func (sp spec) serverArgs(dir string) []string {
	if sp.collection {
		save := "0"
		if !sp.readOnly {
			save = "1s"
		}
		return []string{"-collections", dir, "-save-interval", save}
	}
	return []string{"-db", dir, "-scrub-interval", "0", "-checkpoint-age", "-1s", "-checkpoint-ops", "256"}
}

// setUp generates the data from the seed (enough stream for slices
// rounds on a write workload), bulk-builds or preloads it, computes the
// expected answers (untimed, and only for a set-up that is kept) and
// starts the server.
func (e *env) setUp(ctx context.Context, sp spec, seed int64, slices int, dir string, keep, snapshot bool) (*fixture, error) {
	fx := &fixture{sp: sp, dir: dir}
	t0 := time.Now()
	var err error
	switch sp.name {
	case "xmark_read":
		err = e.prepareXMarkRead(ctx, fx)
	case "bib_scatter", "bib_mixed":
		err = prepareBib(ctx, fx, seed, slices)
	case "xmark_build":
		err = e.prepareXMarkBuild(ctx, fx, seed, slices)
	default:
		err = fmt.Errorf("unknown workload %q", sp.name)
	}
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", sp.name, err)
	}
	fx.prepare = time.Since(t0)

	// Only the set-up whose server takes the load needs expected answers.
	if keep {
		if err := fx.inspect(ctx); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", sp.name, err)
		}
	}
	if keep && snapshot {
		fx.snapshot = dir + ".snapshot"
		if err := copyTree(dir, fx.snapshot); err != nil {
			return nil, err
		}
	}

	t1 := time.Now()
	fx.srv, err = e.startServer(ctx, dir+".log", sp.serverArgs(dir)...)
	if err != nil {
		return nil, err
	}
	fx.start = time.Since(t1)
	return fx, nil
}

func (fx *fixture) setupSeconds() float64 { return (fx.prepare + fx.start).Seconds() }

// createDB stores docs in a fresh database directory.
func createDB(dir string, docs []string) error {
	db, err := fix.Create(dir)
	if err != nil {
		return err
	}
	for _, d := range docs {
		if _, err := db.AddDocumentString(d); err != nil {
			_ = db.Close()
			return err
		}
	}
	if err := db.Save(); err != nil {
		_ = db.Close()
		return err
	}
	return db.Close()
}

// bulkBuild runs the real fixindex binary: bulk construction (paper
// Table 1) is part of set-up time.
func (e *env) bulkBuild(ctx context.Context, fx *fixture) error {
	out, err := exec.CommandContext(ctx, filepath.Join(e.bin, "fixindex"), "-db", fx.dir, "build", "-depth", strconv.Itoa(indexDepth)).CombinedOutput()
	if err != nil {
		return fmt.Errorf("fixindex build: %w\n%s", err, out)
	}
	return nil
}

func (e *env) prepareXMarkRead(ctx context.Context, fx *fixture) error {
	docs := []string{xmltree.MarshalString(datagen.XMark(datagen.Config{Seed: xmarkDataSeed, Scale: xmarkReadScale}))}
	fx.userBytes, fx.docs = totalLen(docs), 1
	if err := createDB(fx.dir, docs); err != nil {
		return err
	}
	return e.bulkBuild(ctx, fx)
}

func (e *env) prepareXMarkBuild(ctx context.Context, fx *fixture, seed int64, slices int) error {
	seedDocs := xmarkEntities(xmarkDataSeed, xmarkBuildSeedScale)
	var err error
	if fx.stream, err = xmarkStream(seed, slices); err != nil {
		return err
	}
	fx.userBytes, fx.docs = totalLen(seedDocs), len(seedDocs)
	if err := createDB(fx.dir, seedDocs); err != nil {
		return err
	}
	return e.bulkBuild(ctx, fx)
}

// prepareBib preloads the record documents into a 4-shard collection
// through the same collection layer the server runs.
func prepareBib(ctx context.Context, fx *fixture, seed int64, slices int) error {
	docs := dblpRecords(bibDataSeed, bibScale)
	if !fx.sp.readOnly {
		stream, err := bibStream(seed, slices*bibMixedIngest*bibIngestAdds)
		if err != nil {
			return err
		}
		fx.stream = [][]string{stream}
	}
	col, err := collection.Create(ctx, filepath.Join(fx.dir, "bib"), collection.Spec{Name: "bib", Shards: bibShards}, collection.Options{})
	if err != nil {
		return err
	}
	fx.nextRec = make([]uint32, bibShards)
	for i := 0; i < len(docs); i += 64 {
		batch := docs[i:min(i+64, len(docs))]
		ids, err := col.AddBatch(ctx, batch)
		if err != nil {
			_ = col.Close()
			return err
		}
		for j, id := range ids {
			fx.live = append(fx.live, liveDoc{id: id, size: len(batch[j])})
			shard, rec := collection.SplitID(id)
			fx.nextRec[shard] = rec + 1
		}
	}
	fx.userBytes, fx.docs = totalLen(docs), len(docs)
	if err := col.Save(); err != nil {
		_ = col.Close()
		return err
	}
	return col.Close()
}

// engine is the in-process view of a fixture's data the harness checks
// answers against: one database, or the shards of the collection.
type engine struct {
	col *collection.Collection
	dbs []*fix.DB
}

func openEngine(sp spec, dir string) (*engine, error) {
	if !sp.collection {
		db, err := fix.Open(dir)
		if err != nil {
			return nil, err
		}
		return &engine{dbs: []*fix.DB{db}}, nil
	}
	col, err := collection.Open(filepath.Join(dir, "bib"), collection.Options{})
	if err != nil {
		return nil, err
	}
	en := &engine{col: col}
	for i := 0; i < col.NumShards(); i++ {
		en.dbs = append(en.dbs, col.Shard(i).DB)
	}
	return en, nil
}

func (en *engine) close() error {
	if en.col != nil {
		return en.col.Close()
	}
	return en.dbs[0].Close()
}

// count sums a query's result over every database (a shard without the
// query's root label contributes 0 either way).
func (en *engine) count(ctx context.Context, q string, opts ...fix.QueryOption) (int, error) {
	n := 0
	for _, db := range en.dbs {
		res, err := db.QueryCtx(ctx, q, opts...)
		if err != nil {
			return 0, err
		}
		n += res.Count
	}
	return n, nil
}

func (en *engine) liveDocs() int {
	n := 0
	for _, db := range en.dbs {
		n += db.NumDocuments() - db.DeletedDocuments()
	}
	return n
}

// inspect opens the freshly prepared data in-process, before the server
// owns it, to compute each template's exact count with fix.ScanOnly and
// to record the index sizes the shape check looks at.
func (fx *fixture) inspect(ctx context.Context) error {
	en, err := openEngine(fx.sp, fx.dir)
	if err != nil {
		return err
	}
	defer func() { _ = en.close() }()
	fx.expected = make([]int, len(fx.sp.templates))
	for i, q := range fx.sp.templates {
		if fx.expected[i], err = en.count(ctx, q, fix.ScanOnly()); err != nil {
			return fmt.Errorf("expected count of %s: %w", q, err)
		}
	}
	for _, db := range en.dbs {
		fx.pages = append(fx.pages, db.IndexSizeBytes()/btree.DefaultPageSize)
	}
	return nil
}

// verifyFinal reopens the drained data directory and checks what a
// write workload must leave behind: the live document count, and index
// and scan agreeing on every template. It returns the number of
// violated checks.
func verifyFinal(ctx context.Context, sp spec, dir string, wantDocs int) (int, error) {
	en, err := openEngine(sp, dir)
	if err != nil {
		return 0, err
	}
	defer func() { _ = en.close() }()
	bad := 0
	if got := en.liveDocs(); got != wantDocs {
		fmt.Fprintf(os.Stderr, "fixload: %s: %d live documents after the run, want %d\n", sp.name, got, wantDocs)
		bad++
	}
	for _, q := range sp.templates {
		idx, err := en.count(ctx, q)
		if err != nil {
			return bad, err
		}
		scan, err := en.count(ctx, q, fix.ScanOnly())
		if err != nil {
			return bad, err
		}
		if idx != scan {
			fmt.Fprintf(os.Stderr, "fixload: %s: %s: index says %d, scan says %d\n", sp.name, q, idx, scan)
			bad++
		}
	}
	return bad, nil
}

// op is one pre-built operation of a round.
type op struct {
	req []byte
	// class groups the operations that cost alike and can stand in for
	// one another when the quietest samples are sought: a query's
	// template, or, behind the templates, the kind of an ingest request.
	class int
	tmpl  int      // query: template index; ingest: -1
	ids   []uint64 // ingest: the IDs the adds must be acknowledged with
	adds  []string // ingest: the documents added
	dels  []uint64 // ingest: the IDs deleted
	// delBytes is the XML volume of the documents an ingest op deletes.
	delBytes int64
}

func (o *op) isIngest() bool { return o.tmpl < 0 }

// addBytes is the XML volume an ingest op adds.
func (o *op) addBytes() int64 { return totalLen(o.adds) }

func (sp spec) queryPath(q string, traced bool) string {
	p := "/query?q=" + url.QueryEscape(q)
	if sp.collection {
		p = "/c/bib" + p
	}
	if traced {
		p += "&trace=1"
	}
	return p
}

func (sp spec) ingestPath() string {
	if sp.collection {
		return "/c/bib/ingest"
	}
	return "/ingest"
}

// ndjson encodes adds then deletes as one NDJSON body.
func ndjson(adds []string, dels []uint64) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	for _, d := range adds {
		_ = enc.Encode(struct {
			Op  string `json:"op"`
			XML string `json:"xml"`
		}{"add", d})
	}
	for _, id := range dels {
		_ = enc.Encode(struct {
			Op  string `json:"op"`
			Rec uint64 `json:"rec"`
		}{"delete", id})
	}
	return b.Bytes()
}

// buildRounds pre-builds n rounds of request bytes from the seed. A
// read-only workload gets one list that every round replays; a write
// workload gets consecutive slices of its stream, so round k sees the
// same database state in every run of the same seed. Every round of a
// workload holds the same number of operations of each class.
func (fx *fixture) buildRounds(seed int64, n int, traced bool) ([][]op, error) {
	sp := fx.sp
	rng := rand.New(rand.NewSource(seed))
	shuffle := func(ops []op) {
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	}
	queries := func(reps int) []op {
		ops := make([]op, 0, reps*len(sp.templates))
		for r := 0; r < reps; r++ {
			for t, q := range sp.templates {
				ops = append(ops, op{req: getRequest(sp.queryPath(q, traced)), class: t, tmpl: t})
			}
		}
		shuffle(ops)
		return ops
	}
	switch sp.name {
	case "xmark_read":
		return [][]op{queries(xmarkReadReps)}, nil
	case "bib_scatter":
		return [][]op{queries(bibScatterReps)}, nil
	case "xmark_build":
		rounds := make([][]op, n)
		next := uint64(fx.docs)
		for k := range rounds {
			for kind, xk := range xmarkBuildKinds {
				for b := 0; b < xk.batches; b++ {
					at := (k*xk.batches + b) * xmarkBuildBatch
					rounds[k] = append(rounds[k], op{class: len(sp.templates) + kind, tmpl: -1, adds: fx.stream[kind][at : at+xmarkBuildBatch]})
				}
			}
			shuffle(rounds[k])
			for i := range rounds[k] {
				o := &rounds[k][i]
				for range o.adds {
					o.ids = append(o.ids, next)
					next++
				}
				o.req = postNDJSON(sp.ingestPath(), ndjson(o.adds, nil))
			}
		}
		return rounds, nil
	case "bib_mixed":
		rounds := make([][]op, n)
		live := append([]liveDoc(nil), fx.live...)
		nextRec := append([]uint32(nil), fx.nextRec...)
		stream := fx.stream[0]
		for k := range rounds {
			// 4 queries per ingest, every template equally often.
			qs := queries(4 * bibMixedIngest / len(sp.templates))
			for b := 0; b < bibMixedIngest; b++ {
				rounds[k] = append(rounds[k], qs[4*b:4*b+4]...)
				o := op{class: len(sp.templates), tmpl: -1, adds: stream[:bibIngestAdds]}
				stream = stream[bibIngestAdds:]
				for _, d := range o.adds {
					shard, err := sp.shardOf(d)
					if err != nil {
						return nil, err
					}
					id := collection.GlobalID(shard, nextRec[shard])
					nextRec[shard]++
					o.ids = append(o.ids, id)
					live = append(live, liveDoc{id: id, size: len(d)})
				}
				for _, d := range live[:bibIngestAdds] {
					o.dels = append(o.dels, d.id)
					o.delBytes += int64(d.size)
				}
				live = live[bibIngestAdds:]
				o.req = postNDJSON(sp.ingestPath(), ndjson(o.adds, o.dels))
				rounds[k] = append(rounds[k], o)
			}
		}
		return rounds, nil
	}
	return nil, fmt.Errorf("unknown workload %q", sp.name)
}

// copyTree copies a data directory (regular files and directories).
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(to, b, 0o644)
	})
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

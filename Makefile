GO ?= go

.PHONY: build vet vet-cross test race norace lint loc check bench-build bench-smoke bench-parallel bench-shards serve-smoke fuzz-smoke stress ingest-crash maintain-crash

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# vet-cross vets the tree as two other platforms build it: the record
# heap is a mapped file on unix and a plain one elsewhere
# (internal/storage/heap_unix.go, heap_other.go), and a build-tagged file
# only compiles where its tag holds.
vet-cross:
	GOOS=windows $(GO) vet ./...
	GOOS=darwin GOARCH=arm64 $(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# norace runs every test in a //go:build !race file, which `make race` —
# CI's other test step — never compiles: the allocation gates
# (testing.AllocsPerRun; the race detector makes sync.Pool drop objects
# on purpose) and the single-goroutine correctness tests the detector
# would slow tenfold (the entry-hash pin, the skip-scan differential, the
# leaf-split characterisation). tools/norace fails when a !race file
# declares a test this list does not name, or the list a test no file
# declares.
NORACE_TESTS = TestCollectionQueryAllocs|TestEvalDoesNotAllocate|TestIndexEntriesAreTheRecordedOnes|TestInPlaceEditsDoNotAllocate|TestLeafSplitFill|TestProbeMatchesScanOfEverything|TestQueryAllocsIndependentOfCandidates|TestViewReadsDoNotAllocate
norace:
	$(GO) test -run '^($(NORACE_TESTS))$$' ./...

# lint runs the project analyzer suite (tools/fixvet): the six flat
# passes (errcmp, lockcheck, ctxcheck, obscheck, depcheck, doccheck)
# plus the three flow-aware ones (lockorder, paircheck, atomiccheck) in
# one run, over the library and the tools subtree alike. Exits 1 on any
# finding and 2 when the tree does not type-check; under GitHub Actions
# the findings are workflow annotations.
lint:
	$(GO) run ./tools/fixvet

# bench-build vets and compiles the benchmark harness. bench/ is its own
# module, so `go build ./...` at the root skips it, and a change that
# removes something fixload compiles against would otherwise surface only
# when the benchmark fails to build. (-o /dev/null: the one main package
# would otherwise be written to bench/fixload, which is its directory.)
bench-build:
	cd bench && $(GO) vet ./... && $(GO) build -o /dev/null ./...

# loc prints the size of the product: lines of non-test Go outside the
# benchmark harness. It is the number every deletion PR quotes
# (ROADMAP item 8), so it goes into every `make check` and CI log.
loc:
	@git ls-files '*.go' | grep -v _test.go | grep -v '^bench/' | xargs cat | wc -l

# check is the full pre-merge gate: vet (here and cross-compiled), build
# (the benchmark harness included), tests (the fault-injection and
# crash-recovery suites run as part of the default test set), then the
# race detector and the !race tests it excludes, then the static-analysis
# suite, then the line count.
check: vet vet-cross build bench-build test race norace lint loc

# bench-smoke runs the refinement, query-pipeline, served-query,
# construction, ingest-request and Figure 6/7 benchmarks for one iteration
# each — not to time anything, but so a benchmark that no longer builds,
# whose refined count no longer equals the scan's, whose index is no
# longer packed or stores a cell per entry again (more than 7.4
# B/entry), whose probe allocates per entry again (more than 400
# allocs per query), whose served query parses, plans or compiles a
# repeated text again (more than 150 allocs per query), whose ingest
# request is no longer one group commit, decodes pages to insert again
# (more than 4 700 allocs per request) or leaves behind an index of more
# than 5.5 B/entry, or whose clustered FIX executor counts other results
# than NoK or F&B fails CI.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkNokRefine|BenchmarkQueryPipeline|BenchmarkServedQuery|BenchmarkTable1Construction|BenchmarkIngestRequest|BenchmarkFig6XMark|BenchmarkFig6DBLP|BenchmarkFig6Treebank|BenchmarkFig7Values' -benchtime 1x .

# bench-parallel regenerates the committed parallel-construction sweep
# (1/2/4/NumCPU workers; asserts byte-identical indexes).
bench-parallel:
	$(GO) run ./cmd/fixbench -exp parallel -scale 0.2 -json BENCH_parallel.json

# bench-shards regenerates the committed collection shard sweep
# (ingest + query throughput at 1/2/4/8 shards).
bench-shards:
	$(GO) run ./cmd/fixbench -exp shards -scale 0.5 -json BENCH_shards.json

# serve-smoke is the collection-serving e2e gate: a two-collection,
# four-shard-each fixserve surface taking concurrent scatter-gather
# queries and routed ingest under the race detector, plus the doc-drift
# check that every served route is in docs/SERVING.md.
serve-smoke:
	$(GO) test -race -v -run 'TestCollectionServerAcceptance|TestServingDocCoversAllRoutes|TestServingDocCoversAllFlags' ./cmd/fixserve/

# fuzz-smoke runs each native fuzz target briefly on top of the committed
# seed corpus — a cheap regression net for the input-hardening layer, the
# node-header decodes the matcher steps through records with (held to
# binary.Uvarint), the heap's record and batch-trailer decoder, the
# hand-written query-response encoder, and the operation sequences every
# query evaluator must answer as the reference does (internal/oracle).
fuzz-smoke:
	$(GO) test -fuzz=FuzzParseXML -fuzztime=10s ./internal/xmltree/
	$(GO) test -fuzz=FuzzNodeHeader -fuzztime=10s ./internal/xmltree/
	$(GO) test -fuzz=FuzzParseXPath -fuzztime=10s ./internal/xpath/
	$(GO) test -fuzz=FuzzViewPage -fuzztime=10s ./internal/btree/
	$(GO) test -fuzz=FuzzHeapScan -fuzztime=10s ./internal/storage/
	$(GO) test -fuzz=FuzzPostingChunk -fuzztime=10s ./internal/core/
	$(GO) test -fuzz=FuzzIngestRequest -fuzztime=10s ./cmd/fixserve/
	$(GO) test -fuzz=FuzzQueryResponse -fuzztime=10s ./cmd/fixserve/
	$(GO) test -fuzz=FuzzOpSequence -fuzztime=10s ./internal/oracle/

# stress hammers the governed fixserve stack — queries through the
# admission gate, breaker and panic containment, plus concurrent durable
# ingest against a shallow queue — with concurrent clients under the
# race detector.
stress:
	FIX_STRESS=1 $(GO) test -race -run 'TestStressGovernedServer|TestStressIngestAndQuery' -v ./cmd/fixserve/
	FIX_STRESS=1 $(GO) test -race -run 'TestStressMaintain' -v ./fix/

# ingest-crash runs the write-path crash-recovery sweeps: a simulated
# crash at every heap write, trailer, fsync and rollback truncation of the
# group commit — once over a window that changes more than 256 pages of a
# large index — checking that acknowledged operations survive reopen and
# unacknowledged ones vanish; the same at every write, sync, truncation
# and file removal of the conversion of a directory written before batch
# trailers; Open's choice between a crash's torn batch, which it cuts, and
# damage, which it refuses; the heap's own torn-batch and trailer tests;
# and the per-file log of a Save's writes and fsyncs: nothing reaches
# fix.btree between two Saves, nor inside one before the journal's fsync.
ingest-crash:
	$(GO) test -run 'TestIngestCrashSweep|TestIngestBatchRollbackTransient|TestConversionCrashSweep|TestUnabsorbedLogConverts|TestTombstonesPastLogBaseDroppedOnOpen|TestOpenDropsTornAppend|TestOpenKeepsCorruptHeap|TestOldHeapTornTail' -v ./fix/
	$(GO) test -run 'TestStoreOpenTornRecord|TestStoreOpenCorruptPrefix|TestTrailersRestoreDeletesAndLabels' -v ./internal/storage/
	$(GO) test -run 'TestCrashDuring|TestCrashPointRecovery|TestStreamedJournal|TestStaleIndexDegrades|TestIngestLog' -v ./internal/core/

# maintain-crash runs the online-maintenance fault suites: a simulated
# crash at every write of the checkpoint window (once with more than 256
# pages to commit), the clean Close and reopen of a large index with
# batches past its checkpoint, scrub detection of injected B-tree and heap
# corruption — a record, a trailer's deletes — with automatic repair, and
# the checkpoint failure/suspension/recovery state machine.
maintain-crash:
	$(GO) test -run 'TestCheckpoint|TestCloseReopen|TestScrub|TestMaintainer' -v ./fix/
	$(GO) test -run 'TestScrubDisk' -v ./internal/btree/

package fix

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/fix-index/fix/internal/obs"
)

// newLargeScanDB builds an unindexed database big enough that a full
// scan refinement takes well over a millisecond.
func newLargeScanDB(t testing.TB) *DB {
	t.Helper()
	db, err := CreateMem()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&sb, "<a><b>t%d</b></a>", i)
	}
	sb.WriteString("</r>")
	doc := sb.String()
	for i := 0; i < 200; i++ {
		if _, err := db.AddDocumentString(doc); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestDeadlineKillsPromptlyWithPartialTrace(t *testing.T) {
	db := newLargeScanDB(t)

	// Sanity: ungoverned, the query takes real time and succeeds.
	res, err := db.Query("//a/b")
	if err != nil {
		t.Fatal(err)
	}
	want := res.Count

	start := time.Now()
	res, err = db.Query("//a/b", QueryLimits(Limits{Timeout: time.Millisecond}), Trace())
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("1ms-deadline query = %v (count %d), want context.DeadlineExceeded", err, res.Count)
	}
	if elapsed > 100*time.Millisecond {
		t.Fatalf("deadline kill took %v, want well under 100ms", elapsed)
	}
	if res.Trace == nil {
		t.Fatal("no partial trace on a deadline kill with Trace")
	}
	if res.Trace.Total <= 0 {
		t.Fatal("partial trace has no total time")
	}

	// The database is unharmed: the same query still answers exactly.
	res, err = db.Query("//a/b")
	if err != nil || res.Count != want {
		t.Fatalf("query after deadline kill = (%d, %v), want (%d, nil)", res.Count, err, want)
	}
}

func TestBudgetExceededCountersReconciled(t *testing.T) {
	db := newTestDB(t, IndexOptions{})
	before := obs.Default().Snapshot()

	res, err := db.Query("//article[author]/title", QueryLimits(Limits{MaxRefineNodes: 1}), Trace())
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("budgeted query = %v, want ErrBudgetExceeded", err)
	}
	if res.Trace == nil {
		t.Fatal("no partial trace on a budget kill with Trace")
	}

	after := obs.Default().Snapshot()
	if d := after.BudgetExceeded - before.BudgetExceeded; d != 1 {
		t.Errorf("queries_budget_exceeded delta = %d, want 1", d)
	}
	if d := after.QueryErrors - before.QueryErrors; d != 1 {
		t.Errorf("query_errors delta = %d, want 1", d)
	}
	if d := after.Queries - before.Queries; d != 0 {
		t.Errorf("queries delta = %d, want 0 (failed queries are errors, not completions)", d)
	}
}

func TestDeadlineCounterClassified(t *testing.T) {
	db := newLargeScanDB(t)
	before := obs.Default().Snapshot()
	_, err := db.Query("//a/b", QueryLimits(Limits{Timeout: time.Millisecond}))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	after := obs.Default().Snapshot()
	if d := after.DeadlineExceeded - before.DeadlineExceeded; d != 1 {
		t.Errorf("queries_deadline_exceeded delta = %d, want 1", d)
	}
}

func TestMaxResultsCap(t *testing.T) {
	db := newTestDB(t, IndexOptions{})
	// //article has 3 matches in the fixture docs.
	if _, err := db.Query("//article", QueryLimits(Limits{MaxResults: 2})); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("capped query = %v, want ErrBudgetExceeded", err)
	}
	if res, err := db.Query("//article", QueryLimits(Limits{MaxResults: 3})); err != nil || res.Count != 3 {
		t.Fatalf("query at the cap = (%d, %v), want (3, nil)", res.Count, err)
	}
}

func TestMaxCandidatesCap(t *testing.T) {
	db := newTestDB(t, IndexOptions{})
	res, err := db.Query("//article[author]/title")
	if err != nil {
		t.Fatal(err)
	}
	if res.Candidates < 2 {
		t.Skipf("fixture produced %d candidates; need >= 2", res.Candidates)
	}
	_, err = db.Query("//article[author]/title", QueryLimits(Limits{MaxCandidates: 1}))
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("candidate-capped query = %v, want ErrBudgetExceeded", err)
	}
}

func TestWithLimitsOverridesDBDefault(t *testing.T) {
	db := newTestDB(t, IndexOptions{})
	db.SetOptions(Options{Limits: Limits{MaxResults: 1}})
	defer db.SetOptions(Options{})

	if _, err := db.Query("//article"); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("DB-default limit not applied: %v", err)
	}
	// The per-query option replaces the DB default wholesale: an empty
	// Limits via QueryLimits means unlimited, not "merge with default".
	if res, err := db.Query("//article", QueryLimits(Limits{})); err != nil || res.Count != 3 {
		t.Fatalf("override query = (%d, %v), want (3, nil)", res.Count, err)
	}
}

func TestWithScanOnlyExact(t *testing.T) {
	db := newTestDB(t, IndexOptions{})
	want, err := db.Query("//article[author]/title")
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("//article[author]/title", ScanOnly())
	if err != nil {
		t.Fatal(err)
	}
	if !res.ScanFallback {
		t.Fatal("ScanOnly did not report ScanFallback")
	}
	if res.Count != want.Count {
		t.Fatalf("scan-only count = %d, indexed count = %d; fallback must stay exact", res.Count, want.Count)
	}
}

func TestPanicContainedAndDegrades(t *testing.T) {
	db := newTestDB(t, IndexOptions{})
	before := obs.Default().Snapshot()
	db.SetOptions(Options{
		SlowQueryThreshold: time.Nanosecond,
		OnSlowQuery:        func(QueryTrace) { panic("injected") },
	})
	_, err := db.Query("//article")
	if !errors.Is(err, ErrPanic) {
		t.Fatalf("panicking query = %v, want ErrPanic", err)
	}
	if db.IndexHealth() == nil {
		t.Fatal("contained panic did not degrade the index")
	}
	after := obs.Default().Snapshot()
	if d := after.PanicsRecovered - before.PanicsRecovered; d != 1 {
		t.Errorf("panics_recovered delta = %d, want 1", d)
	}

	// Degraded, not dead: without the hook the query answers exactly via
	// the scan fallback, and a rebuild restores full health.
	db.SetOptions(Options{})
	res, err := db.Query("//article")
	if err != nil || res.Count != 3 || !res.ScanFallback {
		t.Fatalf("query on degraded index = (%d, fallback=%v, %v), want (3, true, nil)", res.Count, res.ScanFallback, err)
	}
	if err := db.RebuildIndex(); err != nil {
		t.Fatal(err)
	}
	if err := db.IndexHealth(); err != nil {
		t.Fatalf("health after rebuild: %v", err)
	}
	res, err = db.Query("//article")
	if err != nil || res.Count != 3 || res.ScanFallback {
		t.Fatalf("query after rebuild = (%d, fallback=%v, %v), want (3, false, nil)", res.Count, res.ScanFallback, err)
	}
}

func TestAddDocumentParseLimits(t *testing.T) {
	db, err := CreateMem()
	if err != nil {
		t.Fatal(err)
	}
	db.SetOptions(Options{ParseLimits: ParseLimits{MaxDepth: 2}})
	deep := "<a><b><c/></b></a>"
	if _, err := db.AddDocumentString(deep); !errors.Is(err, ErrDocumentLimit) {
		t.Fatalf("over-deep document = %v, want ErrDocumentLimit", err)
	}
	if db.NumDocuments() != 0 {
		t.Fatalf("rejected document was stored: %d documents", db.NumDocuments())
	}
	if _, err := db.AddDocumentString("<a><b/></a>"); err != nil {
		t.Fatalf("document within limits: %v", err)
	}
}

func TestQueryErrorClassification(t *testing.T) {
	db := newTestDB(t, IndexOptions{})
	if _, err := db.Query("//["); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("malformed query = %v, want ErrBadQuery", err)
	}
	huge := "/" + strings.Repeat("a", 5000)
	if _, err := db.Query(huge); !errors.Is(err, ErrQueryLimit) {
		t.Fatalf("oversized query = %v, want ErrQueryLimit", err)
	}
}

// TestConcurrentDeadlinesConsistent runs governed and ungoverned queries
// concurrently (meaningful mostly under -race): deadline kills must not
// corrupt shared state, and every ungoverned query keeps answering
// exactly throughout.
func TestConcurrentDeadlinesConsistent(t *testing.T) {
	db := newLargeScanDB(t)
	res, err := db.Query("//a/b")
	if err != nil {
		t.Fatal(err)
	}
	want := res.Count

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if w%2 == 0 {
					res, err := db.Query("//a/b")
					if err != nil || res.Count != want {
						t.Errorf("ungoverned query = (%d, %v), want (%d, nil)", res.Count, err, want)
						return
					}
				} else {
					res, err := db.Query("//a/b",
						QueryLimits(Limits{Timeout: time.Millisecond}), Trace())
					if err == nil {
						continue // fast machine: finished inside the deadline
					}
					if !errors.Is(err, context.DeadlineExceeded) {
						t.Errorf("governed query = %v, want DeadlineExceeded", err)
						return
					}
					if res.Trace == nil {
						t.Error("deadline kill lost its partial trace")
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkQueryGovernanceOverhead measures the default path with the
// governance layer in place: no limits, background context. Compare
// against the governed variant to see what a budget costs when used.
func BenchmarkQueryGovernanceOverhead(b *testing.B) {
	db := newLargeScanDB(b)
	b.Run("ungoverned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.Query("//a/b"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("budgeted", func(b *testing.B) {
		lim := Limits{MaxRefineNodes: 1 << 40}
		for i := 0; i < b.N; i++ {
			if _, err := db.Query("//a/b", QueryLimits(lim)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func TestAddDocumentMaxBytes(t *testing.T) {
	db, err := CreateMem()
	if err != nil {
		t.Fatal(err)
	}
	db.SetOptions(Options{ParseLimits: ParseLimits{MaxBytes: 32}})
	big := "<a>" + strings.Repeat("x", 64) + "</a>"
	// The reader is cut off at the bound before parsing, so an
	// arbitrarily large input cannot be buffered wholesale.
	if _, err := db.AddDocument(strings.NewReader(big)); !errors.Is(err, ErrDocumentLimit) {
		t.Fatalf("oversized document = %v, want ErrDocumentLimit", err)
	}
	if db.NumDocuments() != 0 {
		t.Fatalf("rejected document was stored: %d documents", db.NumDocuments())
	}
	if _, err := db.AddDocumentString("<a>ok</a>"); err != nil {
		t.Fatalf("document within the byte limit: %v", err)
	}
}

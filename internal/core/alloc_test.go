//go:build !race

package core

import (
	"strings"
	"testing"

	"github.com/fix-index/fix/internal/xpath"
)

// TestQueryAllocsIndependentOfCandidates pins what the served probe costs
// in memory: nothing per entry scanned and nothing per candidate. The same
// twig over one large record yields ≈200 candidates in one index and
// ≈20 000 in another; in steady state (warm candidate and matcher pools) a
// query allocates the same handful of per-request objects on both. It is
// excluded from race builds, where sync.Pool drops objects on purpose.
func TestQueryAllocsIndependentOfCandidates(t *testing.T) {
	q := xpath.MustParse("//a[b]")
	allocs := func(n int) float64 {
		doc := "<r>" + strings.Repeat("<a><b/></a>", n) + "</r>"
		ix, err := Build(memStoreFromDocs(t, []string{doc}), Options{DepthLimit: 3})
		if err != nil {
			t.Fatal(err)
		}
		g := freeze(t, ix)
		run := func() {
			res, err := query(g, q)
			if err != nil || res.Candidates != n || res.Count != n {
				t.Fatalf("%d subtrees: %d candidates, %d results, err %v", n, res.Candidates, res.Count, err)
			}
		}
		run() // grows the pooled candidate list to n
		return testing.AllocsPerRun(20, run)
	}
	small, large := allocs(200), allocs(20000)
	t.Logf("allocs/op: %v with 200 candidates, %v with 20000", small, large)
	if large-small >= 8 || small-large >= 8 {
		t.Errorf("a query allocates %v times with 200 candidates and %v with 20000: the probe or the candidate list allocates per entry", small, large)
	}
}

//go:build !race

package nok

import "testing"

// TestEvalDoesNotAllocate pins the second property the refinement speed
// rests on (the first is TestVisitsBoundedByTwigHeight): with a warmed
// state pool, refining a candidate — matching or not — allocates nothing.
// It is excluded from race builds, where sync.Pool drops a share of the
// objects put into it on purpose.
func TestEvalDoesNotAllocate(t *testing.T) {
	doc := `<r><a><b>x</b><c/></a><a><b>y</b></a><d><a><b>x</b><c/></a></d></r>`
	for _, tc := range []struct {
		query string
		count int
	}{
		{`//a[b="x"]/c`, 2},
		{`/r/a[b="x"]/c`, 1},
		{`/r/a[b="z"]/c`, 0},
		{`/r/d/c`, 0},
	} {
		q, cur := compileOn(t, doc, tc.query)
		if n := q.Count(cur, 0); n != tc.count { // also warms the pool
			t.Fatalf("Count(%s) = %d, want %d", tc.query, n, tc.count)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if n, _ := q.Eval(cur, 0); n != tc.count {
				t.Errorf("Eval(%s) = %d, want %d", tc.query, n, tc.count)
			}
		})
		if allocs != 0 {
			t.Errorf("Eval(%s) allocates %v times per call, want 0", tc.query, allocs)
		}
	}
}

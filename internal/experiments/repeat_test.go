package experiments

import (
	"context"
	"runtime"
	"testing"

	"github.com/fix-index/fix/internal/core"
	"github.com/fix-index/fix/internal/obs"
	"github.com/fix-index/fix/internal/storage"
	"github.com/fix-index/fix/internal/xpath"
)

// TestQueryCountersRepeat pins what makes Figure 6's clustered I/O columns
// comparable between runs: a query refines its candidates in one order, so
// from the same state it reads the heap of copies the same way every time,
// and its counters repeat exactly. The index is built by four workers and
// the test runs on two processors, the setting in which a refinement that
// spread candidates over goroutines interleaved its reads and moved the
// sequential/random split from run to run. A query the pair sketch leaves
// no candidates (it has no answer at the test's scale) refines nothing and
// is passed over; every dataset must keep some that refine.
func TestQueryCountersRepeat(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const runs = 30
	for ds, queries := range RepresentativeQueries {
		env := testEnv(t, ds)
		env.Workers = 4
		c, err := env.Clustered()
		if err != nil {
			t.Fatalf("%s: %v", ds, err)
		}
		ix := c.ix
		refined := 0
		for _, rq := range queries {
			q := xpath.MustParse(rq.XPath)
			// run returns the query's trace and the heap reads it made.
			run := func() (obs.Trace, storage.Stats) {
				g := ix.Freeze()
				defer g.Unpin()
				read, release := c.reader()
				defer release()
				var tr obs.Trace
				heap0 := c.heap.Stats()
				pq, err := g.PreparePath(q, &tr)
				if err != nil {
					t.Fatalf("%s: %v", rq.Name, err)
				}
				if _, err := g.QueryRead(context.Background(), pq, &tr, core.Limits{}, read); err != nil {
					t.Fatalf("%s: %v", rq.Name, err)
				}
				return tr, c.heap.Stats().Sub(heap0)
			}
			// The heap classifies a read as sequential by where the previous
			// one ended, so the first run starts from another query's
			// position; every later run starts where an identical one ended.
			run()
			want, reads := run()
			if want.Candidates == 0 && want.SketchPruned > 0 {
				continue // the pair sketch proves the query empty: nothing to refine
			}
			if want.Candidates == 0 {
				t.Fatalf("%s: no candidates; the refinement counters are vacuous", rq.Name)
			}
			refined++
			deltas := map[storage.Stats]int{reads: 1}
			for i := 1; i < runs; i++ {
				got, reads := run()
				deltas[reads]++
				if got.NodesVisited != want.NodesVisited || got.Candidates != want.Candidates ||
					got.Matched != want.Matched || got.Count != want.Count {
					t.Errorf("%s run %d: nodes %d cdt %d rst %d cnt %d, run 1: %d %d %d %d", rq.Name, i+1,
						got.NodesVisited, got.Candidates, got.Matched, got.Count,
						want.NodesVisited, want.Candidates, want.Matched, want.Count)
				}
			}
			if len(deltas) != 1 {
				t.Errorf("%s: %d runs gave %d distinct heap read deltas: %v", rq.Name, runs, len(deltas), deltas)
			}
		}
		if refined == 0 {
			t.Errorf("%s: no query has candidates; the refinement counters are vacuous", ds)
		}
	}
}

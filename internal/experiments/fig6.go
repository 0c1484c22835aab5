package experiments

import (
	"context"
	"fmt"
	"time"

	"github.com/fix-index/fix/internal/core"
	"github.com/fix-index/fix/internal/storage"
	"github.com/fix-index/fix/internal/xmltree"
	"github.com/fix-index/fix/internal/xpath"
)

// SystemRun is one system's cold-cache execution of one query: wall time
// in RAM, the I/O footprint, and the footprint converted to reference
// disk time (wall + modeled I/O). Shared is, for a FIX run, the candidates
// answered by their chunk's first match, which read nothing.
type SystemRun struct {
	Wall    time.Duration
	IO      IOStats
	Modeled time.Duration
	Count   int
	Shared  int
}

// Fig6Row is one runtime comparison: the four systems of Figure 6 on one
// query. Unclustered FIX is compared against the bare NoK scan, clustered
// FIX against the F&B index, as in the paper (§6.3).
type Fig6Row struct {
	Query                        string
	NoK, FIXUnclust, FB, FIXClus SystemRun
}

// Fig6 runs the dataset's runtime workload over all four systems with
// cold caches.
func Fig6(ctx context.Context, env *Env) ([]Fig6Row, error) {
	queries, ok := RuntimeQueries[env.Dataset]
	if !ok {
		return nil, fmt.Errorf("experiments: no runtime queries for %s", env.Dataset)
	}
	uidx, err := env.Unclustered()
	if err != nil {
		return nil, err
	}
	cidx, err := env.Clustered()
	if err != nil {
		return nil, err
	}
	fb, err := env.FB()
	if err != nil {
		return nil, err
	}
	var rows []Fig6Row
	for _, rq := range queries {
		q, err := xpath.Parse(rq.XPath)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", rq.Name, err)
		}
		row := Fig6Row{Query: rq.Name}

		row.NoK, err = runCold(
			func() error { env.Store.ClearCache(); env.Store.ResetStats(); return nil },
			func() (int, error) { return env.NoKScan(q) },
			func() IOStats { return storeIO(env.Store) },
		)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s (NoK): %w", rq.Name, err)
		}

		row.FIXUnclust, err = env.runColdFIX(ctx, uidx, nil, q)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s (FIX unclustered): %w", rq.Name, err)
		}

		row.FB, err = runCold(
			func() error { fb.ClearCache(); fb.ResetStats(); return nil },
			func() (int, error) { return fb.Eval(q.Tree(), env.Store.Dict()) },
			func() IOStats {
				st := fb.Stats()
				return IOStats{Random: st.PageReads, SeqBytes: st.ExtentBytes}
			},
		)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s (F&B): %w", rq.Name, err)
		}

		row.FIXClus, err = env.runColdFIX(ctx, uidx, cidx, q)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s (FIX clustered): %w", rq.Name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// runCold clears state, executes once, and collects wall time plus the
// I/O footprint.
func runCold(clear func() error, run func() (int, error), io func() IOStats) (SystemRun, error) {
	if err := clear(); err != nil {
		return SystemRun{}, err
	}
	start := time.Now()
	count, err := run()
	if err != nil {
		return SystemRun{}, err
	}
	wall := time.Since(start)
	footprint := io()
	return SystemRun{
		Wall:    wall,
		IO:      footprint,
		Modeled: wall + Disk2006.IOTime(footprint),
		Count:   count,
	}, nil
}

// runColdFIX is runCold for a FIX index: q runs once, planned afresh, on
// a generation of ix frozen for the run, so no heap view carries a read of
// an earlier run into it. With a clustered copy c it reads the candidates
// from c's heap (QueryRead), and otherwise from the primary store; that
// heap's counters and the B-tree's are cleared. The probe is charged one
// random access per node access of the frozen B-tree image: the image is
// resident, and a tree that read its pages from a cold disk would read
// each page a range scan touches exactly once, so the count is the same.
func (e *Env) runColdFIX(ctx context.Context, ix *core.Index, c *Clustered, q *xpath.Path) (SystemRun, error) {
	g, heap := ix.Freeze(), e.Store
	defer g.Unpin()
	var read func(storage.Pointer) (xmltree.Cursor, xmltree.Ref, error)
	if c != nil {
		var release func()
		read, release = c.reader()
		defer release()
		heap = c.heap
	}
	var shared int
	run, err := runCold(
		func() error {
			heap.ResetStats()
			ix.BTree().ResetStats()
			return nil
		},
		func() (int, error) {
			res, err := count(ctx, g, q, read)
			shared = res.SharedMatches
			return res.Count, err
		},
		func() IOStats {
			st := heap.Stats()
			io := IOStats{Random: st.RandomReads, SeqBytes: st.BytesRead}
			if c == nil {
				// Unclustered refinement dereferences one pointer per
				// candidate: a seek plus the subtree's bytes.
				io = IOStats{Random: st.SubtreeReads, SeqBytes: st.SubtreeBytes}
			}
			io.Random += ix.BTree().Stats().CacheHits
			return io
		},
	)
	run.Shared = shared
	return run, err
}

// storeIO converts store counters to a footprint: random record accesses
// are seeks, all transferred bytes stream sequentially after the seek.
func storeIO(s *storage.Store) IOStats {
	st := s.Stats()
	return IOStats{Random: st.RandomReads, SeqBytes: st.BytesRead}
}

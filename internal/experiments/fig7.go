package experiments

import (
	"context"
	"fmt"
	"time"

	"github.com/fix-index/fix/internal/core"
	"github.com/fix-index/fix/internal/datagen"
	"github.com/fix-index/fix/internal/xpath"
)

// DefaultBeta is the paper's β for the DBLP value index (§6.4).
const DefaultBeta = 10

// Fig7Row is one value-predicate query: implementation-independent
// metrics of the integrated value index (Figure 7a) and the runtime
// comparison against F&B (Figure 7b).
type Fig7Row struct {
	Query   string
	Metrics core.Metrics
	FB      SystemRun
	FIXVal  SystemRun
}

// Fig7 runs the DBLP value workload on the clustered copy of the
// value-extended FIX index and the F&B baseline, both with cold caches.
func Fig7(ctx context.Context, env *Env) ([]Fig7Row, error) {
	if env.Dataset != datagen.DBLPDataset {
		return nil, fmt.Errorf("experiments: Fig7 runs on DBLP, not %s", env.Dataset)
	}
	vidx, vclus, err := env.ValueIndex(DefaultBeta)
	if err != nil {
		return nil, err
	}
	fb, err := env.FB()
	if err != nil {
		return nil, err
	}
	var rows []Fig7Row
	for _, rq := range ValueQueries {
		q, err := xpath.Parse(rq.XPath)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", rq.Name, err)
		}
		row := Fig7Row{Query: rq.Name}
		res, err := count(ctx, env.Frozen(vidx), q)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s (metrics): %w", rq.Name, err)
		}
		row.Metrics = res.Metrics()

		row.FB, err = runCold(
			func() error {
				fb.ClearCache()
				fb.ResetStats()
				env.Store.ClearCache()
				env.Store.ResetStats()
				return nil
			},
			func() (int, error) { return fb.Eval(q.Tree(), env.Store.Dict()) },
			func() IOStats {
				st := fb.Stats()
				io := storeIO(env.Store) // value refinement reads documents
				io.Random += st.PageReads
				io.SeqBytes += st.ExtentBytes
				return io
			},
		)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s (F&B): %w", rq.Name, err)
		}

		row.FIXVal, err = env.runColdFIX(ctx, vidx, vclus, q)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s (FIX values): %w", rq.Name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// BetaRow reports the §6.4 construction-cost tradeoff for one β: a larger
// hash range means more distinct value labels, a larger bisimulation
// graph and a larger B-tree.
type BetaRow struct {
	Beta      uint32
	BuildTime time.Duration
	IdxBytes  int64
	EdgePairs int
	Entries   int
}

// BetaSweep builds value indexes for each β and reports their cost,
// alongside the β=0 structural baseline. IdxBytes is the B-tree's: a
// clustered copy would add the same heap at every β.
func BetaSweep(env *Env, betas []uint32) ([]BetaRow, error) {
	// Structural baseline first.
	base, err := core.Build(env.Store, core.Options{DepthLimit: env.DepthLimit()})
	if err != nil {
		return nil, err
	}
	rows := []BetaRow{{
		Beta:      0,
		BuildTime: base.BuildTime(),
		IdxBytes:  base.SizeBytes(),
		EdgePairs: base.EdgePairs(),
		Entries:   base.Entries(),
	}}
	for _, beta := range betas {
		ix, err := core.Build(env.Store, core.Options{
			DepthLimit: env.DepthLimit(),
			Values:     true,
			Beta:       beta,
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, BetaRow{
			Beta:      beta,
			BuildTime: ix.BuildTime(),
			IdxBytes:  ix.SizeBytes(),
			EdgePairs: ix.EdgePairs(),
			Entries:   ix.Entries(),
		})
	}
	return rows, nil
}

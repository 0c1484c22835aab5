package experiments

import (
	"context"

	"github.com/fix-index/fix/internal/core"
	"github.com/fix-index/fix/internal/datagen"
)

// Fig5Row reports average selectivity, pruning power and false-positive
// ratio over a set of random queries (paper Figure 5; 1000 queries per
// dataset in the original). Both pruning bounds are reported: the paper's
// full-pattern bound and the library's provably complete bound. Because
// the paper bound can produce false negatives on adversarial twigs (see
// DESIGN.md), the row also counts random queries on which it lost
// results.
type Fig5Row struct {
	Dataset string
	Queries int // queries actually evaluated (sel in (0,1), covered)

	AvgSel float64 // exact, from the sound run

	// Paper bound.
	AvgPP  float64
	AvgFPR float64
	// FalseNegQueries counts queries where the paper bound missed at
	// least one true result.
	FalseNegQueries int

	// Provably complete bound.
	SoundAvgPP  float64
	SoundAvgFPR float64
}

// Fig5 generates random twig queries from the dataset and averages the
// metrics, excluding selectivity-0 and selectivity-1 queries as the paper
// does (§6.2 footnote).
func Fig5(ctx context.Context, env *Env, numQueries int) (Fig5Row, error) {
	paper, err := env.Unclustered()
	if err != nil {
		return Fig5Row{}, err
	}
	sound, err := env.SoundIndex()
	if err != nil {
		return Fig5Row{}, err
	}
	pgen, sgen := env.Frozen(paper), env.Frozen(sound)
	maxDepth := env.DepthLimit()
	if maxDepth == 0 {
		maxDepth = 5
	}
	queries := datagen.RandomQueries(env.Store, env.Cfg.Seed+1, numQueries, maxDepth, 3)
	row := Fig5Row{Dataset: string(env.Dataset)}
	for _, q := range queries {
		pq, err := sgen.PreparePath(q, nil)
		if err != nil {
			return Fig5Row{}, err
		}
		if !pq.Covered() {
			continue
		}
		res, err := sgen.QueryPrepared(ctx, pq, nil, core.Limits{})
		if err != nil {
			return Fig5Row{}, err
		}
		exact := res.Metrics()
		if exact.Rst == 0 || exact.Rst == exact.Ent {
			continue // sel 1 or 0: uninformative, excluded as in the paper
		}
		if res, err = count(ctx, pgen, q, nil); err != nil {
			return Fig5Row{}, err
		}
		pm := res.Metrics()
		row.Queries++
		row.AvgSel += exact.Sel
		row.AvgPP += pm.PP
		row.AvgFPR += pm.FPR
		if pm.Rst < exact.Rst {
			row.FalseNegQueries++
		}
		row.SoundAvgPP += exact.PP
		row.SoundAvgFPR += exact.FPR
	}
	if row.Queries > 0 {
		n := float64(row.Queries)
		row.AvgSel /= n
		row.AvgPP /= n
		row.AvgFPR /= n
		row.SoundAvgPP /= n
		row.SoundAvgFPR /= n
	}
	return row, nil
}

package experiments

import (
	"context"
	"time"

	"github.com/fix-index/fix/internal/core"
	"github.com/fix-index/fix/internal/xpath"
)

// The ablations quantify two design choices DESIGN.md calls out: the
// root-label component of the feature key (paper §3.4) and the depth
// limit / coverage / index size tradeoff (paper §4.4).

// RootLabelRow compares pruning with and without the root-label feature
// for one representative query.
type RootLabelRow struct {
	Query          string
	PPWith         float64
	PPWithout      float64
	ScannedWith    int
	ScannedWithout int
}

// AblationRootLabel builds a second index whose query planner ignores the
// root label and contrasts pruning power and scan effort.
func AblationRootLabel(ctx context.Context, env *Env) ([]RootLabelRow, error) {
	with, err := env.Unclustered()
	if err != nil {
		return nil, err
	}
	without, err := withoutRootLabel(with)
	if err != nil {
		return nil, err
	}
	withGen := env.Frozen(with)
	withoutGen := without.Freeze()
	defer withoutGen.Unpin()
	var rows []RootLabelRow
	for _, rq := range RepresentativeQueries[env.Dataset] {
		q, err := xpath.Parse(rq.XPath)
		if err != nil {
			return nil, err
		}
		resW, err := count(ctx, withGen, q, nil)
		if err != nil {
			return nil, err
		}
		resWo, err := count(ctx, withoutGen, q, nil)
		if err != nil {
			return nil, err
		}
		rows = append(rows, RootLabelRow{
			Query:          rq.Name,
			PPWith:         resW.Metrics().PP,
			PPWithout:      resWo.Metrics().PP,
			ScannedWith:    resW.Scanned,
			ScannedWithout: resWo.Scanned,
		})
	}
	return rows, nil
}

// withoutRootLabel builds ix's twin whose planner ignores the root label:
// ix's options with NoRootLabel set and nothing else changed, so the
// pruning bound, the depth limit and the workers stay ix's.
func withoutRootLabel(ix *core.Index) (*core.Index, error) {
	opts := ix.Options()
	opts.NoRootLabel = true
	return core.Build(ix.Store(), opts)
}

// DepthSweepRow reports one depth limit's cost and coverage.
type DepthSweepRow struct {
	Depth    int
	ICT      time.Duration
	IdxBytes int64
	Oversize int
	Covered  int // representative queries the index can answer
	AvgPP    float64
}

// AblationDepth builds unclustered indexes at several depth limits and
// reports construction cost, coverage of the representative queries and
// average pruning power over the covered ones.
func AblationDepth(ctx context.Context, env *Env, depths []int) ([]DepthSweepRow, error) {
	var rows []DepthSweepRow
	for _, d := range depths {
		row, err := depthSweepRow(ctx, env, d)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// depthSweepRow builds the depth-d index and evaluates the
// representative queries it covers.
func depthSweepRow(ctx context.Context, env *Env, d int) (DepthSweepRow, error) {
	ix, err := core.Build(env.Store, core.Options{DepthLimit: d})
	if err != nil {
		return DepthSweepRow{}, err
	}
	row := DepthSweepRow{
		Depth:    d,
		ICT:      ix.BuildTime(),
		IdxBytes: ix.SizeBytes(),
		Oversize: ix.OversizeEntries(),
	}
	g := ix.Freeze()
	defer g.Unpin()
	for _, rq := range RepresentativeQueries[env.Dataset] {
		q, err := xpath.Parse(rq.XPath)
		if err != nil {
			return DepthSweepRow{}, err
		}
		pq, err := g.PreparePath(q, nil)
		if err != nil {
			return DepthSweepRow{}, err
		}
		if !pq.Covered() {
			continue
		}
		res, err := g.QueryPrepared(ctx, pq, nil, core.Limits{})
		if err != nil {
			return DepthSweepRow{}, err
		}
		row.Covered++
		row.AvgPP += res.Metrics().PP
	}
	if row.Covered > 0 {
		row.AvgPP /= float64(row.Covered)
	}
	return row, nil
}

// PruningModeRow contrasts the paper's pruning bound with the provably
// complete default on one representative query.
type PruningModeRow struct {
	Query    string
	PaperPP  float64
	SoundPP  float64
	PaperRst int
	SoundRst int // exact; a smaller PaperRst means false negatives
}

// AblationPruningMode evaluates the dataset's representative queries
// under both pruning bounds.
func AblationPruningMode(ctx context.Context, env *Env) ([]PruningModeRow, error) {
	paper, err := env.Unclustered()
	if err != nil {
		return nil, err
	}
	sound, err := env.SoundIndex()
	if err != nil {
		return nil, err
	}
	pgen, sgen := env.Frozen(paper), env.Frozen(sound)
	var rows []PruningModeRow
	for _, rq := range RepresentativeQueries[env.Dataset] {
		q, err := xpath.Parse(rq.XPath)
		if err != nil {
			return nil, err
		}
		pres, err := count(ctx, pgen, q, nil)
		if err != nil {
			return nil, err
		}
		sres, err := count(ctx, sgen, q, nil)
		if err != nil {
			return nil, err
		}
		pm, sm := pres.Metrics(), sres.Metrics()
		rows = append(rows, PruningModeRow{
			Query:    rq.Name,
			PaperPP:  pm.PP,
			SoundPP:  sm.PP,
			PaperRst: pm.Rst,
			SoundRst: sm.Rst,
		})
	}
	return rows, nil
}

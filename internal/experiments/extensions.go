package experiments

import (
	"fmt"
	"time"

	"github.com/fix-index/fix/internal/joins"
	"github.com/fix-index/fix/internal/tagindex"
	"github.com/fix-index/fix/internal/xpath"
)

// Extension experiments beyond the paper's evaluation: the join-based
// evaluator of the architecture in Figure 3 compared against the
// navigational operator.

// EvaluatorRow compares the navigational (NoK) and join-based
// (Stack-Tree structural join) processors on one runtime query, both
// without FIX pruning.
type EvaluatorRow struct {
	Query    string
	Count    int
	NoK      time.Duration
	Joins    time.Duration
	TagBuild time.Duration
	TagMB    float64
}

// ExtEvaluators runs the dataset's runtime workload through both
// evaluators.
func ExtEvaluators(env *Env) ([]EvaluatorRow, error) {
	queries, ok := RuntimeQueries[env.Dataset]
	if !ok {
		return nil, fmt.Errorf("experiments: no runtime queries for %s", env.Dataset)
	}
	t0 := time.Now()
	tags, err := tagindex.Build(env.Store)
	if err != nil {
		return nil, err
	}
	tagBuild := time.Since(t0)
	ev := joins.New(tags)
	var rows []EvaluatorRow
	for _, rq := range queries {
		q, err := xpath.Parse(rq.XPath)
		if err != nil {
			return nil, err
		}
		row := EvaluatorRow{Query: rq.Name, TagBuild: tagBuild, TagMB: float64(tags.SizeBytes()) / (1 << 20)}
		nokCount, nokTime, err := timeIt(func() (int, error) { return env.NoKScan(q) })
		if err != nil {
			return nil, err
		}
		row.NoK = nokTime
		jc, jTime, err := timeIt(func() (int, error) { return ev.Count(q.Tree()) })
		if err != nil {
			return nil, err
		}
		row.Joins = jTime
		if jc != nokCount {
			return nil, fmt.Errorf("experiments: %s: joins %d != NoK %d", rq.Name, jc, nokCount)
		}
		row.Count = jc
		rows = append(rows, row)
	}
	return rows, nil
}

package experiments

import (
	"context"
	"fmt"

	"github.com/fix-index/fix/internal/core"
	"github.com/fix-index/fix/internal/xpath"
)

// Table2Row is one representative query's implementation-independent
// metrics (paper Table 2).
type Table2Row struct {
	Query string
	Band  string
	core.Metrics
}

// Table2 evaluates the dataset's representative queries on the
// unclustered index.
func Table2(ctx context.Context, env *Env) ([]Table2Row, error) {
	ix, err := env.Unclustered()
	if err != nil {
		return nil, err
	}
	queries, ok := RepresentativeQueries[env.Dataset]
	if !ok {
		return nil, fmt.Errorf("experiments: no representative queries for %s", env.Dataset)
	}
	g := env.Frozen(ix)
	var rows []Table2Row
	for _, rq := range queries {
		q, err := xpath.Parse(rq.XPath)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", rq.Name, err)
		}
		res, err := count(ctx, g, q, nil)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", rq.Name, err)
		}
		rows = append(rows, Table2Row{Query: rq.Name, Band: rq.Band, Metrics: res.Metrics()})
	}
	return rows, nil
}

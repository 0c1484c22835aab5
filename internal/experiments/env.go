// Package experiments reproduces every table and figure of the paper's
// evaluation (§6) over the synthetic workloads in internal/datagen. Each
// experiment function returns structured rows; cmd/fixbench formats them
// in the paper's layout, and the repository's benchmarks wrap them as
// testing.B targets.
package experiments

import (
	"context"
	"fmt"
	"time"

	"github.com/fix-index/fix/internal/core"
	"github.com/fix-index/fix/internal/datagen"
	"github.com/fix-index/fix/internal/fbindex"
	"github.com/fix-index/fix/internal/nok"
	"github.com/fix-index/fix/internal/storage"
	"github.com/fix-index/fix/internal/xpath"
)

// Env holds one dataset plus lazily built indexes so experiments sharing
// a dataset do not rebuild them.
type Env struct {
	Dataset datagen.Dataset
	Cfg     datagen.Config
	Store   *storage.Store

	// Workers bounds the worker pool of every index the environment
	// builds (0 = one per CPU). It must be set before the first lazy
	// build; the index bytes are identical for every value, so the
	// experiment results do not depend on it.
	Workers int

	elements int

	uidx  *core.Index     // structural, paper pruning bound
	cidx  *core.Clustered // the clustered copy of uidx
	vidx  *core.Index     // with values, paper pruning bound
	vclus *core.Clustered // the clustered copy of vidx
	sound *core.Index     // provably complete bound
	fb    *fbindex.Index

	// gens holds the frozen query executor of every index and clustered
	// copy handed to Frozen or FrozenClustered: frozen once, shared by all
	// experiments, released by Close.
	gens map[any]*core.Generation

	uidxTime, fbTime time.Duration
}

// Setup generates the dataset and counts its elements.
func Setup(ds datagen.Dataset, cfg datagen.Config) (*Env, error) {
	st, err := datagen.Generate(ds, cfg)
	if err != nil {
		return nil, err
	}
	elems, err := st.CountElements()
	if err != nil {
		return nil, err
	}
	return &Env{Dataset: ds, Cfg: cfg, Store: st, elements: elems, gens: map[any]*core.Generation{}}, nil
}

// Frozen returns (freezing on first use) the query executor over ix. The
// environment's indexes never change after their build, so one
// generation serves every query of every experiment.
func (e *Env) Frozen(ix *core.Index) *core.Generation {
	g, ok := e.gens[ix]
	if !ok {
		g = ix.Freeze()
		e.gens[ix] = g
	}
	return g
}

// FrozenClustered is Frozen for the executor that reads the clustered
// copy c.
func (e *Env) FrozenClustered(c *core.Clustered) *core.Generation {
	g, ok := e.gens[c]
	if !ok {
		g = c.Freeze()
		e.gens[c] = g
	}
	return g
}

// Close releases the generations Frozen and FrozenClustered handed out.
func (e *Env) Close() {
	for k, g := range e.gens {
		g.Unpin()
		delete(e.gens, k)
	}
}

// count plans q afresh on g — the paper charges planning to every query —
// and runs it with no trace and no limits.
func count(ctx context.Context, g *core.Generation, q *xpath.Path) (core.Result, error) {
	pq, err := g.PreparePath(q, nil)
	if err != nil {
		return core.Result{}, err
	}
	return g.QueryPrepared(ctx, pq, nil, core.Limits{})
}

// Elements returns the dataset's element count.
func (e *Env) Elements() int { return e.elements }

// DepthLimit returns the paper's per-dataset depth limit.
func (e *Env) DepthLimit() int { return datagen.DefaultDepthLimit(e.Dataset) }

// The experiment indexes use the paper's literal pruning bound
// (PaperPruning) to reproduce its tables and figures; SoundIndex provides
// the library's default provably complete bound for the comparison rows.

// Unclustered returns (building on first use) the unclustered FIX index.
func (e *Env) Unclustered() (*core.Index, error) {
	if e.uidx != nil {
		return e.uidx, nil
	}
	ix, err := core.Build(e.Store, core.Options{DepthLimit: e.DepthLimit(), PaperPruning: true, Workers: e.Workers})
	if err != nil {
		return nil, err
	}
	e.uidx, e.uidxTime = ix, ix.BuildTime()
	return ix, nil
}

// SoundIndex returns (building on first use) an unclustered index using
// the provably complete pruning bound.
func (e *Env) SoundIndex() (*core.Index, error) {
	if e.sound != nil {
		return e.sound, nil
	}
	ix, err := core.Build(e.Store, core.Options{DepthLimit: e.DepthLimit(), Workers: e.Workers})
	if err != nil {
		return nil, err
	}
	e.sound = ix
	return ix, nil
}

// Clustered returns (laying it out on first use) the clustered copy of
// the Unclustered index: the paper's clustered FIX (§4.1).
func (e *Env) Clustered() (*core.Clustered, error) {
	if e.cidx != nil {
		return e.cidx, nil
	}
	ix, err := e.Unclustered()
	if err != nil {
		return nil, err
	}
	if e.cidx, err = ix.Cluster(); err != nil {
		return nil, err
	}
	return e.cidx, nil
}

// ValueIndex returns (building on first use) the FIX index with the value
// extension enabled, and its clustered copy.
func (e *Env) ValueIndex(beta uint32) (*core.Index, *core.Clustered, error) {
	if e.vidx != nil {
		return e.vidx, e.vclus, nil
	}
	ix, err := core.Build(e.Store, core.Options{
		DepthLimit:   e.DepthLimit(),
		Values:       true,
		Beta:         beta,
		PaperPruning: true,
		Workers:      e.Workers,
	})
	if err != nil {
		return nil, nil, err
	}
	c, err := ix.Cluster()
	if err != nil {
		return nil, nil, err
	}
	e.vidx, e.vclus = ix, c
	return ix, c, nil
}

// FB returns (building on first use) the F&B bisimulation index.
func (e *Env) FB() (*fbindex.Index, error) {
	if e.fb != nil {
		return e.fb, nil
	}
	start := time.Now()
	ix, err := fbindex.Build(e.Store)
	if err != nil {
		return nil, err
	}
	e.fb, e.fbTime = ix, time.Since(start)
	return ix, nil
}

// VerifyIndexes runs the integrity check over every FIX index the
// environment has built so far. A benchmark run can use it (fixbench
// -verify) to assert the structures it measured were sound.
func (e *Env) VerifyIndexes() error {
	for _, ix := range []struct {
		name string
		idx  *core.Index
	}{
		{"unclustered", e.uidx},
		{"values", e.vidx},
		{"sound", e.sound},
	} {
		if ix.idx == nil {
			continue
		}
		if err := ix.idx.Verify(); err != nil {
			return fmt.Errorf("experiments: %s index failed verification: %w", ix.name, err)
		}
	}
	return nil
}

// NoKScan evaluates the query over the whole store with the bare
// navigational operator (the unindexed baseline) and returns the number
// of output matches.
func (e *Env) NoKScan(q *xpath.Path) (int, error) {
	nq, err := nok.Compile(q.Tree(), e.Store.Dict())
	if err != nil {
		return 0, err
	}
	total := 0
	for rec := 0; rec < e.Store.NumRecords(); rec++ {
		cur, err := e.Store.Cursor(uint32(rec))
		if err != nil {
			return 0, err
		}
		total += nq.Count(cur, 0)
	}
	return total, nil
}

// timeIt runs fn once warm (after one discarded warm-up run) and returns
// the measured duration of the second run together with its result.
func timeIt[T any](fn func() (T, error)) (T, time.Duration, error) {
	var zero T
	if _, err := fn(); err != nil {
		return zero, 0, err
	}
	start := time.Now()
	v, err := fn()
	return v, time.Since(start), err
}

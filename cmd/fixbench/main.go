// Command fixbench regenerates the paper's tables and figures over the
// synthetic workloads. Each experiment prints rows in the layout of the
// corresponding table/figure; see EXPERIMENTS.md for the mapping and the
// paper-vs-measured discussion.
//
// Usage:
//
//	fixbench -exp all                 # everything (slow at full scale)
//	fixbench -exp table2 -scale 0.2   # one experiment, smaller data
//	fixbench -exp fig5 -queries 1000  # the paper's full random workload
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/fix-index/fix/internal/datagen"
	"github.com/fix-index/fix/internal/experiments"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: table1|table2|fig5|fig6a|fig6b|fig6c|fig7|beta|ablation|sketch|evaluators|parallel|shards|all")
		scale    = flag.Float64("scale", 1.0, "dataset scale (1.0 ≈ one tenth of the paper's element counts)")
		seed     = flag.Int64("seed", 42, "generator seed")
		queries  = flag.Int("queries", 200, "random queries per dataset for fig5 (paper: 1000)")
		verify   = flag.Bool("verify", false, "verify the integrity of every index built during the run")
		workers  = flag.Int("workers", 0, "worker pool bound for every index build (0 = one per CPU)")
		jsonPath = flag.String("json", "", "also write the parallel or shards sweep rows as JSON to this file (single-experiment runs only)")
	)
	flag.Parse()
	if err := run(*exp, *scale, *seed, *queries, *verify, *workers, *jsonPath); err != nil {
		fmt.Fprintln(os.Stderr, "fixbench:", err)
		os.Exit(1)
	}
}

// envs caches one Env per dataset across experiments.
type envs struct {
	cfg     datagen.Config
	workers int
	cache   map[datagen.Dataset]*experiments.Env
}

func (e *envs) get(ds datagen.Dataset) (*experiments.Env, error) {
	if env, ok := e.cache[ds]; ok {
		return env, nil
	}
	start := time.Now()
	env, err := experiments.Setup(ds, e.cfg)
	if err != nil {
		return nil, err
	}
	env.Workers = e.workers
	fmt.Printf("[setup] %s: %d documents, %d elements (%s)\n",
		ds, env.Store.NumRecords(), env.Elements(), time.Since(start).Round(time.Millisecond))
	e.cache[ds] = env
	return env, nil
}

func run(exp string, scale float64, seed int64, queries int, verify bool, workers int, jsonPath string) error {
	e := &envs{
		cfg:     datagen.Config{Seed: seed, Scale: scale},
		workers: workers,
		cache:   make(map[datagen.Dataset]*experiments.Env),
	}
	defer func() {
		for _, env := range e.cache {
			env.Close()
		}
	}()
	ctx := context.Background()
	all := exp == "all"
	ran := false
	w := os.Stdout

	if all || exp == "table1" {
		ran = true
		var rows []experiments.Table1Row
		for _, ds := range datagen.AllDatasets {
			env, err := e.get(ds)
			if err != nil {
				return err
			}
			row, err := experiments.Table1(env)
			if err != nil {
				return err
			}
			rows = append(rows, row)
		}
		experiments.PrintTable1(w, rows)
		fmt.Fprintln(w)
	}
	if all || exp == "table2" {
		ran = true
		fmt.Fprintln(w, "Table 2: implementation-independent metrics for representative queries")
		for _, ds := range datagen.AllDatasets {
			env, err := e.get(ds)
			if err != nil {
				return err
			}
			rows, err := experiments.Table2(ctx, env)
			if err != nil {
				return err
			}
			experiments.PrintTable2(w, rows)
		}
		fmt.Fprintln(w)
	}
	if all || exp == "fig5" {
		ran = true
		var rows []experiments.Fig5Row
		for _, ds := range datagen.AllDatasets {
			env, err := e.get(ds)
			if err != nil {
				return err
			}
			row, err := experiments.Fig5(ctx, env, queries)
			if err != nil {
				return err
			}
			rows = append(rows, row)
		}
		experiments.PrintFig5(w, rows)
		fmt.Fprintln(w)
	}
	fig6 := map[string]datagen.Dataset{
		"fig6a": datagen.XMarkDataset,
		"fig6b": datagen.TreebankDataset,
		"fig6c": datagen.DBLPDataset,
	}
	for name, ds := range fig6 {
		if !all && exp != name {
			continue
		}
		ran = true
		env, err := e.get(ds)
		if err != nil {
			return err
		}
		rows, err := experiments.Fig6(ctx, env)
		if err != nil {
			return err
		}
		experiments.PrintFig6(w, string(ds), rows)
		fmt.Fprintln(w)
	}
	if all || exp == "fig7" || exp == "fig7a" || exp == "fig7b" {
		ran = true
		env, err := e.get(datagen.DBLPDataset)
		if err != nil {
			return err
		}
		rows, err := experiments.Fig7(ctx, env)
		if err != nil {
			return err
		}
		experiments.PrintFig7(w, rows)
		fmt.Fprintln(w)
	}
	if all || exp == "beta" {
		ran = true
		env, err := e.get(datagen.DBLPDataset)
		if err != nil {
			return err
		}
		rows, err := experiments.BetaSweep(env, []uint32{2, 10, 50})
		if err != nil {
			return err
		}
		experiments.PrintBetaSweep(w, rows)
		fmt.Fprintln(w)
	}
	if all || exp == "ablation" {
		ran = true
		for _, ds := range []datagen.Dataset{datagen.XMarkDataset, datagen.TreebankDataset} {
			env, err := e.get(ds)
			if err != nil {
				return err
			}
			rows, err := experiments.AblationRootLabel(ctx, env)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "[%s] ", ds)
			experiments.PrintRootLabelAblation(w, rows)
			depthRows, err := experiments.AblationDepth(ctx, env, []int{2, 4, 6})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "[%s] ", ds)
			experiments.PrintDepthSweep(w, depthRows)
			modeRows, err := experiments.AblationPruningMode(ctx, env)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "[%s] ", ds)
			experiments.PrintPruningMode(w, modeRows)
			fmt.Fprintln(w)
		}
	}
	if all || exp == "sketch" {
		ran = true
		var rows []experiments.SketchRow
		for _, ds := range datagen.AllDatasets {
			env, err := e.get(ds)
			if err != nil {
				return err
			}
			dsRows, err := experiments.AblationSketch(ctx, env, queries)
			if err != nil {
				return err
			}
			rows = append(rows, dsRows...)
		}
		experiments.PrintSketchAblation(w, rows)
		fmt.Fprintln(w)
	}
	if all || exp == "evaluators" {
		ran = true
		for _, ds := range []datagen.Dataset{datagen.XMarkDataset, datagen.TreebankDataset, datagen.DBLPDataset} {
			env, err := e.get(ds)
			if err != nil {
				return err
			}
			rows, err := experiments.ExtEvaluators(env)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "[%s] ", ds)
			experiments.PrintEvaluators(w, rows)
		}
		fmt.Fprintln(w)
	}
	if all || exp == "parallel" {
		ran = true
		// A parallel sweep on one scheduler thread measures queueing, not
		// scaling — say so rather than letting the flat curve mislead.
		if runtime.GOMAXPROCS(0) == 1 {
			fmt.Fprintln(os.Stderr, "fixbench: warning: GOMAXPROCS=1; the parallel sweep cannot show speedup on one scheduler thread")
		}
		var rows []experiments.ParallelRow
		counts := experiments.SweepWorkerCounts()
		for _, ds := range datagen.AllDatasets {
			env, err := e.get(ds)
			if err != nil {
				return err
			}
			dsRows, err := experiments.ParallelSweep(env, counts)
			if err != nil {
				return err
			}
			rows = append(rows, dsRows...)
		}
		experiments.PrintParallelSweep(w, rows)
		fmt.Fprintln(w)
		if jsonPath != "" && exp == "parallel" {
			out := struct {
				NumCPU     int                       `json:"num_cpu"`
				GOMAXPROCS int                       `json:"gomaxprocs"`
				Scale      float64                   `json:"scale"`
				Seed       int64                     `json:"seed"`
				Workers    []int                     `json:"worker_counts"`
				Rows       []experiments.ParallelRow `json:"rows"`
			}{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Scale: scale, Seed: seed, Workers: counts, Rows: rows}
			data, err := json.MarshalIndent(out, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(w, "[json] wrote %s\n", jsonPath)
		}
	}
	if all || exp == "shards" {
		ran = true
		dir, err := os.MkdirTemp("", "fixbench-shards-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		counts := experiments.ShardSweepCounts()
		docsPerLabel := int(200 * scale)
		if docsPerLabel < 8 {
			docsPerLabel = 8
		}
		rows, err := experiments.ShardSweep(ctx, dir, counts, docsPerLabel, 4, 500*time.Millisecond)
		if err != nil {
			return err
		}
		experiments.PrintShardSweep(w, rows)
		fmt.Fprintln(w)
		if jsonPath != "" && exp == "shards" {
			out := struct {
				NumCPU     int                    `json:"num_cpu"`
				GOMAXPROCS int                    `json:"gomaxprocs"`
				Scale      float64                `json:"scale"`
				Seed       int64                  `json:"seed"`
				Shards     []int                  `json:"shard_counts"`
				Rows       []experiments.ShardRow `json:"rows"`
			}{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Scale: scale, Seed: seed, Shards: counts, Rows: rows}
			data, err := json.MarshalIndent(out, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(w, "[json] wrote %s\n", jsonPath)
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	if verify {
		for ds, env := range e.cache {
			if err := env.VerifyIndexes(); err != nil {
				return fmt.Errorf("verifying %s indexes: %w", ds, err)
			}
			fmt.Printf("[verify] %s: all built indexes sound\n", ds)
		}
	}
	return nil
}

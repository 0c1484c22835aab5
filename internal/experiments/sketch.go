package experiments

import (
	"context"
	"fmt"
	"io"

	"github.com/fix-index/fix/internal/core"
	"github.com/fix-index/fix/internal/datagen"
)

// SketchWidths are the chunk sketch widths the ablation compares; 0 is no
// sketch, σ alone.
var SketchWidths = []int{0, 16, 24, 32}

// SketchRow is one width of the pair-sketch ablation on one dataset: over
// Fig. 5's random queries on the sound index, the measures with the
// sketch's candidates as cdt, and what the width costs on disk.
type SketchRow struct {
	Dataset string
	K       int
	Queries int
	AvgPP   float64
	AvgFPR  float64
	// CandPerResult is Σ candidates / Σ results over the queries.
	CandPerResult float64
	// BytesPerEntry is the index's bytes per entry with k-bit sketches:
	// the stored index, k bits a chunk more or less than it stores.
	BytesPerEntry float64
	// DiskPct is what k bits of sketch a chunk take in percent of the
	// database: the record heap and the index without sketches. Page
	// rounding aside, it is the change of disk_bytes_per_user_byte.
	DiskPct float64
}

// AblationSketch runs the pair-sketch width ablation: Fig. 5's workload
// (the same random queries, the same exclusions) on the sound index, the
// candidates a k-bit sketch per chunk keeps counted by core.SketchStudy
// for every k of SketchWidths.
func AblationSketch(ctx context.Context, env *Env, numQueries int) ([]SketchRow, error) {
	ix, err := env.SoundIndex()
	if err != nil {
		return nil, err
	}
	g := env.Frozen(ix)
	study, err := core.NewSketchStudy(g)
	if err != nil {
		return nil, err
	}
	maxDepth := env.DepthLimit()
	if maxDepth == 0 {
		maxDepth = 5
	}
	rows := make([]SketchRow, len(SketchWidths))
	for i, k := range SketchWidths {
		rows[i] = SketchRow{Dataset: string(env.Dataset), K: k}
	}
	cands, results := make([]int, len(SketchWidths)), 0
	for _, q := range datagen.RandomQueries(env.Store, env.Cfg.Seed+1, numQueries, maxDepth, 3) {
		pq, err := g.PreparePath(q, nil)
		if err != nil {
			return nil, err
		}
		if !pq.Covered() {
			continue
		}
		res, err := g.QueryPrepared(ctx, pq, nil, core.Limits{})
		if err != nil {
			return nil, err
		}
		if res.Matched == 0 || res.Matched == res.Entries {
			continue // sel 1 or 0, excluded as Fig. 5 does
		}
		kept, err := study.Kept(ctx, pq, SketchWidths)
		if err != nil {
			return nil, err
		}
		results += res.Count
		for i, n := range kept {
			// The study's folds of the stored width and of none must be
			// what the index did.
			if k := SketchWidths[i]; k == study.StoredBits() && n != res.Candidates || k == 0 && n != res.PaperCandidates() {
				return nil, fmt.Errorf("experiments: %s: a %d-bit sketch keeps %d candidates, the index %d of %d", q, k, n, res.Candidates, res.PaperCandidates())
			}
			rows[i].Queries++
			rows[i].AvgPP += 1 - float64(n)/float64(res.Entries)
			rows[i].AvgFPR += 1 - float64(res.Matched)/float64(n)
			cands[i] += n
		}
	}
	entries, chunks := float64(ix.Entries()), float64(study.Chunks())
	unsketched := float64(ix.SizeBytes()) - chunks*float64(study.StoredBits())/8
	for i := range rows {
		r := &rows[i]
		if r.Queries > 0 {
			r.AvgPP /= float64(r.Queries)
			r.AvgFPR /= float64(r.Queries)
		}
		if results > 0 {
			r.CandPerResult = float64(cands[i]) / float64(results)
		}
		sketch := chunks * float64(r.K) / 8
		r.BytesPerEntry = (unsketched + sketch) / entries
		r.DiskPct = 100 * sketch / (float64(env.Store.Size()) + unsketched)
	}
	return rows, nil
}

// PrintSketchAblation renders the pair-sketch width ablation.
func PrintSketchAblation(w io.Writer, rows []SketchRow) {
	fmt.Fprintf(w, "Ablation: pair sketch per chunk, k bits (Fig. 5 queries, sound bound; k = 0 is σ alone)\n")
	fmt.Fprintf(w, "%-9s %4s %8s %9s %9s %10s %9s %8s\n", "dataset", "k", "queries", "avg pp", "avg fpr", "cdt/result", "B/entry", "disk")
	for _, r := range rows {
		fmt.Fprintf(w, "%-9s %4d %8d %8.2f%% %8.2f%% %10.2f %9.2f %7.2f%%\n",
			r.Dataset, r.K, r.Queries, r.AvgPP*100, r.AvgFPR*100, r.CandPerResult, r.BytesPerEntry, r.DiskPct)
	}
}

package experiments

import (
	"context"
	"testing"

	"github.com/fix-index/fix/internal/datagen"
	"github.com/fix-index/fix/internal/xpath"
)

const testScale = 0.04

func testEnv(t *testing.T, ds datagen.Dataset) *Env {
	t.Helper()
	env, err := Setup(ds, datagen.Config{Seed: 7, Scale: testScale})
	if err != nil {
		t.Fatalf("Setup(%s): %v", ds, err)
	}
	t.Cleanup(env.Close)
	return env
}

func TestTable1AllDatasets(t *testing.T) {
	for _, ds := range datagen.AllDatasets {
		env := testEnv(t, ds)
		row, err := Table1(env)
		if err != nil {
			t.Fatalf("%s: %v", ds, err)
		}
		if row.Elements <= 0 || row.UIdxBytes <= 0 || row.CIdxBytes <= 0 {
			t.Errorf("%s: degenerate row %+v", ds, row)
		}
		if row.CIdxBytes <= row.UIdxBytes {
			t.Errorf("%s: clustered copy (%d B) should exceed the index (%d B)",
				ds, row.CIdxBytes, row.UIdxBytes)
		}
		t.Logf("%-9s size=%dKB elems=%d ICT=%v UIdx=%dKB CIdx=%dKB oversize=%d",
			ds, row.SizeBytes/1024, row.Elements, row.ICT, row.UIdxBytes/1024, row.CIdxBytes/1024, row.Oversize)
	}
}

func TestTable2AllDatasets(t *testing.T) {
	for _, ds := range datagen.AllDatasets {
		env := testEnv(t, ds)
		rows, err := Table2(context.Background(), env)
		if err != nil {
			t.Fatalf("%s: %v", ds, err)
		}
		for _, r := range rows {
			if r.FPR < 0 || r.FPR > 1 || r.PP < 0 || r.PP > 1 {
				t.Errorf("%s: metric out of range: %+v", r.Query, r.Metrics)
			}
			t.Logf("%-9s %s", r.Query, r.Metrics)
		}
	}
}

func TestFig5SmallSample(t *testing.T) {
	for _, ds := range datagen.AllDatasets {
		env := testEnv(t, ds)
		row, err := Fig5(context.Background(), env, 40)
		if err != nil {
			t.Fatalf("%s: %v", ds, err)
		}
		if row.Queries == 0 {
			t.Errorf("%s: no informative random queries generated", ds)
		}
		// The provably complete bound can never out-prune the true
		// selectivity; the paper bound may (false negatives), which the
		// row reports rather than hides.
		if row.SoundAvgPP > row.AvgSel+1e-9 {
			t.Errorf("%s: sound pruning power %.4f exceeds selectivity %.4f (false negatives!)",
				ds, row.SoundAvgPP, row.AvgSel)
		}
		t.Logf("%-9s n=%d avgSel=%.3f paper(pp=%.3f fpr=%.3f FN=%d) sound(pp=%.3f fpr=%.3f)",
			ds, row.Queries, row.AvgSel, row.AvgPP, row.AvgFPR, row.FalseNegQueries,
			row.SoundAvgPP, row.SoundAvgFPR)
	}
}

func TestFig6CrossSystemConsistency(t *testing.T) {
	for _, ds := range []datagen.Dataset{datagen.XMarkDataset, datagen.TreebankDataset, datagen.DBLPDataset} {
		env := testEnv(t, ds)
		rows, err := Fig6(context.Background(), env)
		if err != nil {
			t.Fatalf("%s: %v", ds, err)
		}
		for _, r := range rows {
			if r.NoK.Count != r.FIXUnclust.Count || r.NoK.Count != r.FB.Count || r.NoK.Count != r.FIXClus.Count {
				t.Errorf("%s: result counts disagree: NoK=%d FIXu=%d FB=%d FIXc=%d",
					r.Query, r.NoK.Count, r.FIXUnclust.Count, r.FB.Count, r.FIXClus.Count)
			}
			t.Logf("%-12s count=%-6d NoK=%-10v FIXu=%-10v FB=%-10v FIXc=%v | modeled NoK=%v FIXu=%v FB=%v FIXc=%v",
				r.Query, r.NoK.Count, r.NoK.Wall, r.FIXUnclust.Wall, r.FB.Wall, r.FIXClus.Wall,
				r.NoK.Modeled, r.FIXUnclust.Modeled, r.FB.Modeled, r.FIXClus.Modeled)
		}
	}
}

func TestFig7ValueQueries(t *testing.T) {
	env := testEnv(t, datagen.DBLPDataset)
	rows, err := Fig7(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.FB.Count != r.FIXVal.Count {
			t.Errorf("%s: F&B count %d != FIX count %d", r.Query, r.FB.Count, r.FIXVal.Count)
		}
		t.Logf("%-10s %s FB=%v/%v FIXval=%v/%v count=%d",
			r.Query, r.Metrics, r.FB.Wall, r.FB.Modeled, r.FIXVal.Wall, r.FIXVal.Modeled, r.FIXVal.Count)
	}
}

func TestBetaSweep(t *testing.T) {
	env := testEnv(t, datagen.DBLPDataset)
	rows, err := BetaSweep(env, []uint32{2, 10, 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	for _, r := range rows {
		t.Logf("beta=%-3d build=%-10v idx=%dKB pairs=%d entries=%d",
			r.Beta, r.BuildTime, r.IdxBytes/1024, r.EdgePairs, r.Entries)
	}
}

func TestExtRTree(t *testing.T) {
	env := testEnv(t, datagen.XMarkDataset)
	rows, err := ExtRTree(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		t.Logf("%-10s candidates=%-6d btreeScanned=%-6d rtreeVisited=%d",
			r.Query, r.Candidates, r.BTreeScanned, r.RTreeVisited)
	}
}

func TestExtEvaluators(t *testing.T) {
	for _, ds := range []datagen.Dataset{datagen.XMarkDataset, datagen.TreebankDataset} {
		env := testEnv(t, ds)
		rows, err := ExtEvaluators(env)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			t.Logf("%-14s count=%-6d NoK=%-12v joins=%v", r.Query, r.Count, r.NoK, r.Joins)
		}
	}
}

func TestAblationRootLabelAndDepth(t *testing.T) {
	env := testEnv(t, datagen.XMarkDataset)
	rows, err := AblationRootLabel(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.PPWithout > r.PPWith+1e-9 {
			t.Errorf("%s: removing the label feature increased pruning (%.3f -> %.3f)",
				r.Query, r.PPWith, r.PPWithout)
		}
		t.Logf("%-10s pp(label)=%.3f pp(none)=%.3f scan %d vs %d",
			r.Query, r.PPWith, r.PPWithout, r.ScannedWith, r.ScannedWithout)
	}
	depths, err := AblationDepth(context.Background(), env, []int{2, 4, 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(depths) != 3 {
		t.Fatalf("depth rows = %d", len(depths))
	}
	for i := 1; i < len(depths); i++ {
		if depths[i].IdxBytes < depths[i-1].IdxBytes {
			t.Logf("note: index size not monotone in depth (%d: %d vs %d: %d)",
				depths[i-1].Depth, depths[i-1].IdxBytes, depths[i].Depth, depths[i].IdxBytes)
		}
	}
	for _, r := range depths {
		t.Logf("depth=%d ICT=%v idx=%dKB covered=%d avgPP=%.3f", r.Depth, r.ICT, r.IdxBytes/1024, r.Covered, r.AvgPP)
	}
}

func TestAblationPruningModeRows(t *testing.T) {
	env := testEnv(t, datagen.TreebankDataset)
	rows, err := AblationPruningMode(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.SoundPP > r.PaperPP+1e-9 {
			t.Errorf("%s: sound bound out-pruned the paper bound (%.3f > %.3f)", r.Query, r.SoundPP, r.PaperPP)
		}
		t.Logf("%-10s pp paper=%.3f sound=%.3f rst paper=%d exact=%d",
			r.Query, r.PaperPP, r.SoundPP, r.PaperRst, r.SoundRst)
	}
}

func TestFixedQueriesWellFormed(t *testing.T) {
	// Every benchmark query must parse, and every depth-limited workload
	// query must fit under the paper's depth limit of 6.
	check := func(name, expr string, needDepth bool) {
		q, err := xpath.Parse(expr)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			return
		}
		if needDepth {
			if d := xpath.Decompose(q.Tree())[0].Root.Depth(); d > 6 {
				t.Errorf("%s: top twig depth %d exceeds the index limit 6", name, d)
			}
		}
	}
	for ds, queries := range RepresentativeQueries {
		for _, rq := range queries {
			check(rq.Name, rq.XPath, ds != datagen.TCMDDataset)
		}
	}
	for ds, queries := range RuntimeQueries {
		for _, rq := range queries {
			check(rq.Name, rq.XPath, ds != datagen.TCMDDataset)
		}
	}
	for _, rq := range ValueQueries {
		check(rq.Name, rq.XPath, true)
	}
}

func TestTable1RowShape(t *testing.T) {
	env := testEnv(t, datagen.TCMDDataset)
	row, err := Table1(env)
	if err != nil {
		t.Fatal(err)
	}
	if row.DepthLimit != 0 {
		t.Errorf("TCMD depth limit = %d", row.DepthLimit)
	}
	if row.MaxDocDepth <= 0 {
		t.Errorf("max doc depth = %d", row.MaxDocDepth)
	}
	// Collection index: one entry per document.
	uidx, err := env.Unclustered()
	if err != nil {
		t.Fatal(err)
	}
	if uidx.Entries() != env.Store.NumRecords() {
		t.Errorf("entries %d != documents %d", uidx.Entries(), env.Store.NumRecords())
	}
}

func TestExtSpectrum(t *testing.T) {
	env := testEnv(t, datagen.TreebankDataset)
	rows, err := ExtSpectrum(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.CandK4 > r.CandPlain {
			t.Errorf("%s: spectrum filter increased candidates (%d -> %d)", r.Query, r.CandPlain, r.CandK4)
		}
		if r.CandK4 < r.Rst {
			t.Errorf("%s: spectrum filter pruned below rst (%d < %d)", r.Query, r.CandK4, r.Rst)
		}
		t.Logf("%-10s cdt: %d -> %d (rst %d)", r.Query, r.CandPlain, r.CandK4, r.Rst)
	}
}

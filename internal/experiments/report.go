package experiments

import (
	"fmt"
	"io"
	"time"
)

// Report formatting: paper-style rows, one function per table/figure, so
// cmd/fixbench stays a thin flag-parsing shell.

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}

func fmtDur(d time.Duration) string {
	return d.Round(100 * time.Microsecond).String()
}

// PrintTable1 renders Table 1 rows.
func PrintTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintf(w, "Table 1: data sets, index construction times (ICT), index sizes\n")
	fmt.Fprintf(w, "%-10s %10s %10s %12s %10s %10s %9s\n",
		"data set", "size", "#elements", "ICT", "|UIdx|", "|CIdx|", "oversize")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %10s %10d %12s %10s %10s %9d\n",
			r.Dataset, fmtBytes(r.SizeBytes), r.Elements, fmtDur(r.ICT),
			fmtBytes(r.UIdxBytes), fmtBytes(r.CIdxBytes), r.Oversize)
	}
}

// PrintTable2 renders Table 2 rows.
func PrintTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintf(w, "%-10s %8s %8s %8s %10s %10s %10s\n",
		"query", "sel", "pp", "fpr", "ent", "cdt", "rst")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %7.2f%% %7.2f%% %7.2f%% %10d %10d %10d\n",
			r.Query, r.Sel*100, r.PP*100, r.FPR*100, r.Ent, r.Cdt, r.Rst)
	}
}

// PrintFig5 renders Figure 5 rows.
func PrintFig5(w io.Writer, rows []Fig5Row) {
	fmt.Fprintf(w, "Figure 5: average sel/pp/fpr over random queries (paper bound | sound bound)\n")
	fmt.Fprintf(w, "%-10s %8s %8s | %8s %8s %7s | %8s %8s\n",
		"data set", "queries", "avg sel", "avg pp", "avg fpr", "FN qry", "pp", "fpr")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %8d %7.2f%% | %7.2f%% %7.2f%% %7d | %7.2f%% %7.2f%%\n",
			r.Dataset, r.Queries, r.AvgSel*100,
			r.AvgPP*100, r.AvgFPR*100, r.FalseNegQueries,
			r.SoundAvgPP*100, r.SoundAvgFPR*100)
	}
}

// PrintFig6 renders one dataset's Figure 6 rows: wall-clock (RAM) and
// modeled reference-disk time per system, and beside the FIX columns the
// candidates unclustered FIX answered by their chunk's first match.
func PrintFig6(w io.Writer, title string, rows []Fig6Row) {
	fmt.Fprintf(w, "Figure 6 (%s): runtime, wall (RAM-resident) | modeled (2006 disk)\n", title)
	fmt.Fprintf(w, "%-14s %8s | %12s %12s %12s %12s | %12s %12s %12s %12s | %8s\n",
		"query", "results", "NoK", "FIX-uncl", "F&B", "FIX-clus", "NoK*", "FIX-uncl*", "F&B*", "FIX-clus*", "shared")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %8d | %12s %12s %12s %12s | %12s %12s %12s %12s | %8d\n",
			r.Query, r.NoK.Count,
			fmtDur(r.NoK.Wall), fmtDur(r.FIXUnclust.Wall), fmtDur(r.FB.Wall), fmtDur(r.FIXClus.Wall),
			fmtDur(r.NoK.Modeled), fmtDur(r.FIXUnclust.Modeled), fmtDur(r.FB.Modeled), fmtDur(r.FIXClus.Modeled),
			r.FIXUnclust.Shared)
	}
	fmt.Fprintf(w, "(* modeled: wall + 8.5ms/seek + 50MB/s sequential; see EXPERIMENTS.md; shared: candidates answered by their chunk's first match)\n")
}

// PrintFig7 renders the Figure 7 rows.
func PrintFig7(w io.Writer, rows []Fig7Row) {
	fmt.Fprintf(w, "Figure 7a: value-index metrics      Figure 7b: runtime vs F&B\n")
	fmt.Fprintf(w, "%-12s %8s %8s %8s | %12s %12s | %12s %12s\n",
		"query", "sel", "pp", "fpr", "F&B wall", "FIX wall", "F&B*", "FIX*")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %7.2f%% %7.2f%% %7.2f%% | %12s %12s | %12s %12s\n",
			r.Query, r.Metrics.Sel*100, r.Metrics.PP*100, r.Metrics.FPR*100,
			fmtDur(r.FB.Wall), fmtDur(r.FIXVal.Wall), fmtDur(r.FB.Modeled), fmtDur(r.FIXVal.Modeled))
	}
}

// PrintBetaSweep renders the β construction-cost sweep (§6.4).
func PrintBetaSweep(w io.Writer, rows []BetaRow) {
	fmt.Fprintf(w, "Beta sweep (§6.4): value-index construction cost vs β (β=0: structural)\n")
	fmt.Fprintf(w, "%6s %14s %12s %12s %10s\n", "beta", "build", "index size", "edge pairs", "entries")
	for _, r := range rows {
		fmt.Fprintf(w, "%6d %14s %12s %12d %10d\n",
			r.Beta, fmtDur(r.BuildTime), fmtBytes(r.IdxBytes), r.EdgePairs, r.Entries)
	}
}

// PrintRootLabelAblation renders the root-label feature ablation.
func PrintRootLabelAblation(w io.Writer, rows []RootLabelRow) {
	fmt.Fprintf(w, "Ablation: root-label feature (pruning power with/without)\n")
	fmt.Fprintf(w, "%-10s %10s %10s %12s %14s\n", "query", "pp(label)", "pp(none)", "scan(label)", "scan(none)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %9.2f%% %9.2f%% %12d %14d\n",
			r.Query, r.PPWith*100, r.PPWithout*100, r.ScannedWith, r.ScannedWithout)
	}
}

// PrintDepthSweep renders the depth-limit ablation.
func PrintDepthSweep(w io.Writer, rows []DepthSweepRow) {
	fmt.Fprintf(w, "Ablation: depth limit (cost vs coverage)\n")
	fmt.Fprintf(w, "%6s %14s %12s %9s %8s %8s\n", "depth", "ICT", "index size", "oversize", "covered", "avg pp")
	for _, r := range rows {
		fmt.Fprintf(w, "%6d %14s %12s %9d %8d %7.2f%%\n",
			r.Depth, fmtDur(r.ICT), fmtBytes(r.IdxBytes), r.Oversize, r.Covered, r.AvgPP*100)
	}
}

// PrintPruningMode renders the pruning-bound ablation.
func PrintPruningMode(w io.Writer, rows []PruningModeRow) {
	fmt.Fprintf(w, "Ablation: pruning bound (paper full-pattern vs provably complete)\n")
	fmt.Fprintf(w, "%-10s %10s %10s %10s %10s\n", "query", "pp(paper)", "pp(sound)", "rst(paper)", "rst(exact)")
	for _, r := range rows {
		flag := ""
		if r.PaperRst < r.SoundRst {
			flag = "  <- false negatives"
		}
		fmt.Fprintf(w, "%-10s %9.2f%% %9.2f%% %10d %10d%s\n",
			r.Query, r.PaperPP*100, r.SoundPP*100, r.PaperRst, r.SoundRst, flag)
	}
}

// PrintEvaluators renders the evaluator comparison.
func PrintEvaluators(w io.Writer, rows []EvaluatorRow) {
	fmt.Fprintf(w, "Extension: navigational (NoK) vs join-based (structural join) evaluation\n")
	fmt.Fprintf(w, "%-14s %8s %12s %12s   (tag index: %s build, %.1f MB)\n",
		"query", "results", "NoK", "joins",
		func() string {
			if len(rows) > 0 {
				return fmtDur(rows[0].TagBuild)
			}
			return "-"
		}(),
		func() float64 {
			if len(rows) > 0 {
				return rows[0].TagMB
			}
			return 0
		}())
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %8d %12s %12s\n", r.Query, r.Count, fmtDur(r.NoK), fmtDur(r.Joins))
	}
}

package experiments

import (
	"strings"
	"testing"
	"time"

	"github.com/fix-index/fix/internal/core"
)

// The printers render the tables users quote in reports; a malformed verb
// or misaligned column would silently garble every experiment. Render
// each one and check the headers and a known cell.
func TestPrinters(t *testing.T) {
	var sb strings.Builder

	PrintTable1(&sb, []Table1Row{{
		Dataset: "xmark", SizeBytes: 2 << 20, Elements: 1234,
		ICT: 3 * time.Second, UIdxBytes: 1 << 20, CIdxBytes: 2 << 20, Oversize: 7,
	}})
	out := sb.String()
	for _, want := range []string{"data set", "xmark", "1234", "3s", "2.0 MB", "7"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 output missing %q:\n%s", want, out)
		}
	}

	sb.Reset()
	PrintTable2(&sb, []Table2Row{{
		Query: "Q_hi", Band: "hi",
		Metrics: core.Metrics{Ent: 100, Cdt: 10, Rst: 5, Sel: 0.95, PP: 0.9, FPR: 0.5},
	}})
	out = sb.String()
	for _, want := range []string{"Q_hi", "95.00%", "90.00%", "50.00%"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table2 output missing %q:\n%s", want, out)
		}
	}

	sb.Reset()
	PrintFig5(&sb, []Fig5Row{{Dataset: "dblp", Queries: 300, AvgSel: 0.97, AvgPP: 0.96, AvgFPR: 0.3, FalseNegQueries: 2, SoundAvgPP: 0.95, SoundAvgFPR: 0.31}})
	if !strings.Contains(sb.String(), "FN qry") || !strings.Contains(sb.String(), "dblp") {
		t.Errorf("Fig5 output:\n%s", sb.String())
	}

	sb.Reset()
	run := SystemRun{Wall: time.Millisecond, Modeled: 2 * time.Millisecond, Count: 9}
	PrintFig6(&sb, "xmark", []Fig6Row{{Query: "q", NoK: run, FIXUnclust: run, FB: run, FIXClus: run}})
	if !strings.Contains(sb.String(), "FIX-clus") || !strings.Contains(sb.String(), "modeled") || !strings.Contains(sb.String(), "shared") {
		t.Errorf("Fig6 output:\n%s", sb.String())
	}

	sb.Reset()
	PrintFig7(&sb, []Fig7Row{{Query: "v", Metrics: core.Metrics{Sel: 0.99, PP: 0.98, FPR: 0.7}, FB: run, FIXVal: run}})
	if !strings.Contains(sb.String(), "Figure 7a") {
		t.Errorf("Fig7 output:\n%s", sb.String())
	}

	sb.Reset()
	PrintBetaSweep(&sb, []BetaRow{{Beta: 10, BuildTime: time.Second, IdxBytes: 1 << 10, EdgePairs: 50, Entries: 99}})
	if !strings.Contains(sb.String(), "beta") || !strings.Contains(sb.String(), "99") {
		t.Errorf("BetaSweep output:\n%s", sb.String())
	}

	sb.Reset()
	PrintRootLabelAblation(&sb, []RootLabelRow{{Query: "q", PPWith: 0.9, PPWithout: 0.5, ScannedWith: 10, ScannedWithout: 1000}})
	if !strings.Contains(sb.String(), "pp(label)") {
		t.Errorf("RootLabel output:\n%s", sb.String())
	}

	sb.Reset()
	PrintDepthSweep(&sb, []DepthSweepRow{{Depth: 6, ICT: time.Second, IdxBytes: 1 << 20, Covered: 3, AvgPP: 0.99}})
	if !strings.Contains(sb.String(), "depth") {
		t.Errorf("DepthSweep output:\n%s", sb.String())
	}

	sb.Reset()
	PrintPruningMode(&sb, []PruningModeRow{{Query: "q", PaperPP: 0.9, SoundPP: 0.9, PaperRst: 4, SoundRst: 5}})
	if !strings.Contains(sb.String(), "false negatives") {
		t.Errorf("PruningMode output should flag lost results:\n%s", sb.String())
	}

	sb.Reset()
	PrintEvaluators(&sb, []EvaluatorRow{{Query: "q", Count: 3, NoK: time.Millisecond, Joins: time.Microsecond, TagBuild: time.Millisecond, TagMB: 1.5}})
	if !strings.Contains(sb.String(), "joins") {
		t.Errorf("Evaluators output:\n%s", sb.String())
	}
	PrintEvaluators(&sb, nil) // empty rows must not panic
}

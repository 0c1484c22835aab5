package experiments

import (
	"context"
	"testing"

	"github.com/fix-index/fix/internal/datagen"
	"github.com/fix-index/fix/internal/xpath"
)

// footprint is what a cold FIX run of one query is gated on: its result
// count, the candidates its chunks' first matches answered, and its I/O.
type footprint struct {
	Count, Shared    int
	Random, SeqBytes int64
}

func footprintOf(r SystemRun) footprint {
	return footprint{r.Count, r.Shared, r.IO.Random, r.IO.SeqBytes}
}

// TestColdFootprintsArePinned pins the cold-cache footprints of Figures 6
// and 7 at the test scale: for every Table 2 query, unclustered FIX (one
// subtree read per candidate through its primary pointer) and clustered
// FIX (the key-order copies), and for every value query the clustered
// value index; and Table 1's |CIdx| per dataset. Random counts the heap's
// seeks plus the B-tree's page accesses. The figures were recorded before
// the clustered layout moved out of the engine, so any change to how a
// copy is laid out or read, or to what a cold run clears, shows here.
func TestColdFootprintsArePinned(t *testing.T) {
	type pair struct {
		query      string
		unclust, c footprint
	}
	want := map[datagen.Dataset]struct {
		cidx int64
		rows []pair
	}{
		datagen.TCMDDataset: {116020, []pair{
			{"TCMD_hi", footprint{58, 0, 21, 17583}, footprint{58, 0, 12, 17583}},
			{"TCMD_md", footprint{65, 0, 44, 42773}, footprint{65, 0, 26, 42773}},
			{"TCMD_lo", footprint{178, 0, 87, 89409}, footprint{178, 0, 13, 89409}},
		}},
		datagen.DBLPDataset: {654604, []pair{
			{"DBLP_hi", footprint{0, 0, 2, 0}, footprint{0, 0, 2, 0}},
			{"DBLP_md", footprint{876, 0, 436, 54743}, footprint{876, 0, 10, 54743}},
			{"DBLP_lo", footprint{449, 2, 449, 57872}, footprint{449, 2, 9, 58157}},
		}},
		datagen.XMarkDataset: {657863, []pair{
			{"XMark_hi", footprint{4, 0, 4, 356}, footprint{4, 0, 3, 356}},
			{"XMark_md", footprint{27, 20, 9, 1014}, footprint{27, 20, 3, 3735}},
			{"XMark_lo", footprint{21, 1, 22, 4042}, footprint{21, 1, 4, 4218}},
		}},
		datagen.TreebankDataset: {691295, []pair{
			{"TrBnk_hi", footprint{27, 0, 64, 50570}, footprint{27, 0, 10, 50570}},
			{"TrBnk_md", footprint{42, 0, 180, 70480}, footprint{42, 0, 66, 70480}},
			{"TrBnk_lo", footprint{106, 2, 72, 52141}, footprint{106, 2, 3, 52399}},
		}},
	}
	ctx := context.Background()
	for _, ds := range datagen.AllDatasets {
		w := want[ds]
		env := testEnv(t, ds)
		row, err := Table1(env)
		if err != nil {
			t.Fatalf("%s: %v", ds, err)
		}
		if row.CIdxBytes != w.cidx {
			t.Errorf("%s: |CIdx| %d B, want %d", ds, row.CIdxBytes, w.cidx)
		}
		uidx, err := env.Unclustered()
		if err != nil {
			t.Fatalf("%s: %v", ds, err)
		}
		cidx, err := env.Clustered()
		if err != nil {
			t.Fatalf("%s: %v", ds, err)
		}
		queries := RepresentativeQueries[ds]
		if len(queries) != len(w.rows) {
			t.Fatalf("%s: %d queries, %d pinned", ds, len(queries), len(w.rows))
		}
		for i, rq := range queries {
			p := w.rows[i]
			q := xpath.MustParse(rq.XPath)
			u, err := env.runColdFIX(ctx, uidx, nil, q)
			if err != nil {
				t.Fatalf("%s unclustered: %v", rq.Name, err)
			}
			c, err := env.runColdFIX(ctx, uidx, cidx, q)
			if err != nil {
				t.Fatalf("%s clustered: %v", rq.Name, err)
			}
			if rq.Name != p.query || footprintOf(u) != p.unclust || footprintOf(c) != p.c {
				t.Errorf("%s: unclustered %+v, clustered %+v; want %s %+v, %+v",
					rq.Name, footprintOf(u), footprintOf(c), p.query, p.unclust, p.c)
			}
		}
	}

	env := testEnv(t, datagen.DBLPDataset)
	vidx, vclus, err := env.ValueIndex(DefaultBeta)
	if err != nil {
		t.Fatal(err)
	}
	values := map[string]footprint{
		"DBLP_vl_hi": {37, 0, 32, 3474},
		"DBLP_vl_lo": {79, 0, 116, 61558},
	}
	for _, rq := range ValueQueries {
		c, err := env.runColdFIX(ctx, vidx, vclus, xpath.MustParse(rq.XPath))
		if err != nil {
			t.Fatalf("%s: %v", rq.Name, err)
		}
		if got, ok := values[rq.Name]; !ok || footprintOf(c) != got {
			t.Errorf("%s: clustered value index %+v, want %+v", rq.Name, footprintOf(c), got)
		}
	}
}

package experiments

import (
	"context"
	"os"
	"strconv"
	"testing"

	"github.com/fix-index/fix/internal/datagen"
)

// TestScaleTrend is a manual experiment driver: FIXSCALE=0.5 go test -run ScaleTrend -v
func TestScaleTrend(t *testing.T) {
	scaleStr := os.Getenv("FIXSCALE")
	if scaleStr == "" {
		t.Skip("set FIXSCALE to run")
	}
	scale, err := strconv.ParseFloat(scaleStr, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range []datagen.Dataset{datagen.TreebankDataset, datagen.XMarkDataset, datagen.DBLPDataset} {
		env, err := Setup(ds, datagen.Config{Seed: 7, Scale: scale})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(env.Close)
		fb, err := env.FB()
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: elems=%d fbClasses=%d fbEdges=%d fbSize=%dKB rounds=%d buildFB=%v",
			ds, env.Elements(), fb.NumClasses(), fb.NumEdges(), fb.SizeBytes()/1024, fb.Rounds(), env.fbTime)
		rows, err := Fig6(context.Background(), env)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			t.Logf("%-12s count=%-6d wall: NoK=%-11v FIXu=%-11v FB=%-11v FIXc=%-11v | modeled: NoK=%-11v FIXu=%-11v FB=%-11v FIXc=%v",
				r.Query, r.NoK.Count, r.NoK.Wall, r.FIXUnclust.Wall, r.FB.Wall, r.FIXClus.Wall,
				r.NoK.Modeled, r.FIXUnclust.Modeled, r.FB.Modeled, r.FIXClus.Modeled)
		}
	}
}

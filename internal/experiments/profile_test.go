package experiments

import (
	"os"
	"testing"
	"time"

	"github.com/fix-index/fix/internal/core"
	"github.com/fix-index/fix/internal/datagen"
	"github.com/fix-index/fix/internal/experiments/internal/fbindex"
)

// TestProfileBuild is a manual driver: FIXPROFILE=1 go test -run ProfileBuild -v -cpuprofile cpu.out
func TestProfileBuild(t *testing.T) {
	if os.Getenv("FIXPROFILE") == "" {
		t.Skip("set FIXPROFILE to run")
	}
	st, err := datagen.Generate(datagen.TreebankDataset, datagen.Config{Seed: 7, Scale: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	ix, err := core.Build(st, core.Options{DepthLimit: 6})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("FIX build: %v entries=%d", time.Since(t0), ix.Entries())
	t0 = time.Now()
	fb, err := fbindex.Build(st)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("FB build: %v classes=%d", time.Since(t0), fb.NumClasses())
}

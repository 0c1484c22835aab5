package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// output runs a command the way main would and returns what it printed.
func output(t *testing.T, dir string, args ...string) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	runErr := run(dir, args)
	os.Stdout = stdout
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(r)
	if err != nil || runErr != nil {
		t.Fatalf("run(%v) = %v (reading its output: %v)", args, runErr, err)
	}
	return string(out)
}

// TestVerifyAndRepairOldFormatIndex is what an operator sees of an index
// written before fix.meta version 8 (fix/testdata/index-written-by-pr20,
// whose page format FIXBT002 is older still, but fix.meta is read first):
// verify says which version the index is, which one this version reads, and
// what to do; repair does it.
func TestVerifyAndRepairOldFormatIndex(t *testing.T) {
	const fixture = "../../fix/testdata/index-written-by-pr20"
	dir := t.TempDir()
	files, err := os.ReadDir(fixture)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(fixture, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	out := output(t, dir, "verify")
	for _, want := range []string{"index degraded", "version 2", "writes 8", "repair"} {
		if !strings.Contains(out, want) {
			t.Errorf("verify on the old-format index does not mention %q:\n%s", want, out)
		}
	}
	if out := output(t, dir, "repair"); !strings.Contains(out, "index rebuilt: 528 entries") {
		t.Errorf("repair printed %q, want 528 entries rebuilt", out)
	}
	if out := output(t, dir, "verify"); !strings.Contains(out, "index ok: 528 entries verified") {
		t.Errorf("verify after the repair printed %q", out)
	}
}

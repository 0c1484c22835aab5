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

// TestVerifyAndRepairDamagedIndex is what an operator sees of an index
// Open degrades: a copy of fix/testdata/index-written-by-pr42 with a byte
// of fix.btree's meta page flipped. verify names the damage and the
// repair; repair rebuilds it.
func TestVerifyAndRepairDamagedIndex(t *testing.T) {
	const fixture = "../../fix/testdata/index-written-by-pr42"
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
		if f.Name() == "fix.btree" {
			b[100] ^= 0xff
		}
		if err := os.WriteFile(filepath.Join(dir, f.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	out := output(t, dir, "verify")
	for _, want := range []string{"index degraded", "page 0 checksum", "repair"} {
		if !strings.Contains(out, want) {
			t.Errorf("verify on the damaged index does not mention %q:\n%s", want, out)
		}
	}
	if out := output(t, dir, "repair"); !strings.Contains(out, "index rebuilt: 528 entries") {
		t.Errorf("repair printed %q, want 528 entries rebuilt", out)
	}
	if out := output(t, dir, "verify"); !strings.Contains(out, "index ok: 528 entries verified") {
		t.Errorf("verify after the repair printed %q", out)
	}
}

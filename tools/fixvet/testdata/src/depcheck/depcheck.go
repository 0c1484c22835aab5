// Package fixture seeds every depcheck rule. The driver test loads it
// as internal/core, where the layering and the filesystem-seam rules apply.
package fixture

import (
	_ "fmt" // ok: stdlib
	"os"

	_ "example.com/notstdlib" // want `neither stdlib nor module-internal`

	_ "github.com/fix-index/fix/cmd/fixindex" // want `command and tool packages may not be imported`

	_ "github.com/fix-index/fix/fix" // want `internal package imports the public`

	_ "github.com/fix-index/fix/internal/xpath" // ok: module-internal library
)

func replace(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil { // ok: a new directory
		return err
	}
	return os.Rename(dir+"/a.tmp", dir+"/a") // want `os.Rename bypasses the filesystem seam`
}

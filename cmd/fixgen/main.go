// Command fixgen materializes one of the synthetic evaluation datasets
// into a FIX database directory (openable with the fix package and
// cmd/fixindex), or dumps it as XML text.
//
// Usage:
//
//	fixgen -dataset xmark -scale 0.5 -out /tmp/xmarkdb
//	fixgen -dataset tcmd -xml -out /tmp/tcmd.xml
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"github.com/fix-index/fix/fix"
	"github.com/fix-index/fix/internal/datagen"
	"github.com/fix-index/fix/internal/storage"
	"github.com/fix-index/fix/internal/xmltree"
)

func main() {
	var (
		dataset = flag.String("dataset", "xmark", "tcmd|dblp|xmark|treebank")
		scale   = flag.Float64("scale", 1.0, "dataset scale (1.0 ≈ one tenth of the paper's element counts)")
		seed    = flag.Int64("seed", 42, "generator seed")
		out     = flag.String("out", "", "output database directory (or file with -xml)")
		asXML   = flag.Bool("xml", false, "write XML text instead of a database directory")
		verify  = flag.Bool("verify", false, "reopen the written database and check it round-trips")
	)
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "fixgen: -out is required")
		os.Exit(2)
	}
	if err := run(datagen.Dataset(*dataset), datagen.Config{Seed: *seed, Scale: *scale}, *out, *asXML, *verify); err != nil {
		fmt.Fprintln(os.Stderr, "fixgen:", err)
		os.Exit(1)
	}
}

func run(ds datagen.Dataset, cfg datagen.Config, out string, asXML, verify bool) error {
	st, err := datagen.Generate(ds, cfg)
	if err != nil {
		return err
	}
	elems, err := st.CountElements()
	if err != nil {
		return err
	}
	if asXML {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		w := bufio.NewWriter(f)
		for rec := 0; rec < st.NumRecords(); rec++ {
			cur, err := st.Cursor(uint32(rec))
			if err != nil {
				return err
			}
			n, err := cur.Decode(0)
			if err != nil {
				return err
			}
			if err := xmltree.Marshal(w, n); err != nil {
				return err
			}
			if err := w.WriteByte('\n'); err != nil {
				return err
			}
		}
		if err := w.Flush(); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s: %d documents, %d elements (XML text)\n", out, st.NumRecords(), elems)
		return nil
	}

	// Database directory: copy the in-memory store into a file-backed one,
	// sealed with one batch trailer as a Save seals it, and persist the
	// dictionary, matching the fix package's layout.
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	hf, err := storage.Create(filepath.Join(out, "data.heap"))
	if err != nil {
		return err
	}
	dst, err := storage.NewStore(hf, st.Dict())
	if err != nil {
		return err
	}
	for rec := 0; rec < st.NumRecords(); rec++ {
		buf, err := st.Record(uint32(rec))
		if err != nil {
			return err
		}
		if _, err := dst.AppendBytes(buf); err != nil {
			return err
		}
	}
	if err := dst.Seal(); err != nil {
		return err
	}
	if err := dst.Sync(); err != nil {
		return err
	}
	df, err := os.Create(filepath.Join(out, "labels.dict"))
	if err != nil {
		return err
	}
	if _, err := st.Dict().WriteTo(df); err != nil {
		_ = df.Close()
		return err
	}
	if err := df.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d documents, %d elements, %d labels\n",
		out, dst.NumRecords(), elems, st.Dict().Len())
	if verify {
		if err := verifyDB(out, st.NumRecords(), elems); err != nil {
			return fmt.Errorf("verifying %s: %w", out, err)
		}
		fmt.Printf("verified %s: reopened database matches the generated data\n", out)
	}
	return nil
}

// verifyDB reopens the written database from scratch, as fix.Open does,
// and re-derives the document and element counts, catching truncated or
// unreadable output before it is used in an experiment.
func verifyDB(dir string, wantDocs, wantElems int) error {
	db, err := fix.Open(dir)
	if err != nil {
		return err
	}
	defer db.Close()
	if n := db.NumDocuments(); n != wantDocs {
		return fmt.Errorf("reopened database holds %d documents, wrote %d", n, wantDocs)
	}
	elems := 0
	for id := 0; id < wantDocs; id++ {
		doc, err := db.Document(uint32(id))
		if err != nil {
			return err
		}
		n, err := xmltree.ParseString(doc)
		if err != nil {
			return err
		}
		elems += n.CountElements()
	}
	if elems != wantElems {
		return fmt.Errorf("reopened database holds %d elements, wrote %d", elems, wantElems)
	}
	return nil
}

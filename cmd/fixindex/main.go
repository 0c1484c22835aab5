// Command fixindex builds and queries FIX indexes over a database
// directory (created by fixgen or the fix package).
//
// Usage:
//
//	fixindex -db /tmp/xmarkdb build -depth 6
//	fixindex -db /tmp/xmarkdb query -trace '//item[name]/mailbox'
//	fixindex -db /tmp/xmarkdb metrics '//item[name]/mailbox'
//	fixindex -db /tmp/xmarkdb add doc.xml
//	fixindex -db /tmp/xmarkdb stats -json
//	fixindex -db /tmp/xmarkdb verify
//	fixindex -db /tmp/xmarkdb repair
//
// When -db points at a collection directory (one holding a
// collection.json manifest, as created by fixserve's collection mode),
// the same commands operate on the whole sharded collection: query
// scatter-gathers with per-shard accounting, add routes documents by
// root label and prints global IDs, and stats/verify/repair walk every
// shard. See docs/SERVING.md for the collection layout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"github.com/fix-index/fix/fix"
)

func main() {
	dbdir := flag.String("db", "", "database directory")
	flag.Parse()
	args := flag.Args()
	if *dbdir == "" || len(args) == 0 {
		usage()
		os.Exit(2)
	}
	if err := run(*dbdir, args); err != nil {
		fmt.Fprintln(os.Stderr, "fixindex:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: fixindex -db DIR COMMAND [args]

commands:
  build [-depth N] [-values] [-beta N]   build the FIX index
  query [-trace] XPATH                   run a query
  metrics XPATH                          report sel/pp/fpr
  add FILE...                            add XML documents
  stats [-json]                          database statistics
  verify                                 check index integrity
  repair                                 rebuild a damaged index

a -db directory holding a collection.json manifest is operated on as a
sharded collection: query/add/stats/verify/repair cover every shard.`)
}

func run(dbdir string, args []string) error {
	if isCollectionDir(dbdir) {
		return runCollection(dbdir, args)
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "add":
		db, err := openOrCreate(dbdir)
		if err != nil {
			return err
		}
		defer db.Close()
		for _, path := range rest {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			id, err := db.AddDocument(f)
			_ = f.Close()
			if err != nil {
				return fmt.Errorf("adding %s: %w", path, err)
			}
			fmt.Printf("added %s as document %d\n", path, id)
		}
		return db.Save()

	case "build":
		fs := flag.NewFlagSet("build", flag.ExitOnError)
		depth := fs.Int("depth", 0, "subpattern depth limit (0 = whole documents)")
		values := fs.Bool("values", false, "integrate text values (§4.6)")
		beta := fs.Uint("beta", 0, "value hash range β (0 = default 10)")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		db, err := fix.Open(dbdir)
		if err != nil {
			return err
		}
		defer db.Close()
		if err := db.BuildIndex(fix.IndexOptions{
			DepthLimit: *depth,
			Values:     *values,
			Beta:       uint32(*beta),
		}); err != nil {
			return err
		}
		if err := db.Save(); err != nil {
			return err
		}
		st := db.IndexBuildStats()
		fmt.Printf("built index: %d entries, %s, %v (parse %v, bisim %v, eigen %v, insert %v; %.1f B/entry)\n",
			db.IndexEntries(), sizeStr(db.IndexSizeBytes()), db.IndexBuildTime().Round(1e6),
			st.Parse.Round(1e6), st.Bisim.Round(1e6), st.Eigen.Round(1e6), st.Insert.Round(1e6),
			float64(db.IndexSizeBytes())/float64(max(db.IndexEntries(), 1)))
		return nil

	case "query":
		fs := flag.NewFlagSet("query", flag.ExitOnError)
		trace := fs.Bool("trace", false, "print the full execution trace")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		if fs.NArg() != 1 {
			return fmt.Errorf("query takes exactly one XPath expression")
		}
		db, err := fix.Open(dbdir)
		if err != nil {
			return err
		}
		defer db.Close()
		var opts []fix.QueryOption
		if *trace {
			opts = append(opts, fix.Trace())
		}
		res, err := db.Query(fs.Arg(0), opts...)
		if err != nil {
			return err
		}
		fmt.Printf("results: %d\n", res.Count)
		if res.Entries > 0 {
			fmt.Printf("pruning: %d entries -> %d candidates -> %d matched\n",
				res.Entries, res.Candidates, res.MatchedEntries)
		} else {
			fmt.Println("(full scan: no index or query not covered)")
		}
		if res.Trace != nil {
			fmt.Println(res.Trace.String())
		}
		return nil

	case "metrics":
		if len(rest) != 1 {
			return fmt.Errorf("metrics takes exactly one XPath expression")
		}
		db, err := fix.Open(dbdir)
		if err != nil {
			return err
		}
		defer db.Close()
		res, err := db.Query(rest[0])
		if err != nil {
			return err
		}
		m, ok := res.Effectiveness()
		if !ok {
			return fmt.Errorf("metrics requires an index that answers the query (run 'build' first; a query deeper than the depth limit is scanned)")
		}
		fmt.Printf("sel=%.2f%% pp=%.2f%% fpr=%.2f%%\n",
			m.Selectivity*100, m.PruningPower*100, m.FalsePosRatio*100)
		return nil

	case "verify":
		db, err := fix.Open(dbdir)
		if err != nil {
			return err
		}
		defer db.Close()
		if !db.HasIndex() {
			return fmt.Errorf("no index to verify (run 'build' first)")
		}
		if err := db.IndexHealth(); err != nil {
			fmt.Printf("index degraded: %v\n", err)
			fmt.Println("queries fall back to sequential scans; run 'repair' to rebuild")
			return nil
		}
		if err := db.VerifyIndex(); err != nil {
			fmt.Printf("index corrupt: %v\n", err)
			fmt.Println("run 'repair' to rebuild")
			return nil
		}
		fmt.Printf("index ok: %d entries verified\n", db.IndexEntries())
		return nil

	case "repair":
		db, err := fix.Open(dbdir)
		if err != nil {
			return err
		}
		defer db.Close()
		if !db.HasIndex() {
			return fmt.Errorf("no index to repair (run 'build' first)")
		}
		if err := db.RebuildIndex(); err != nil {
			return err
		}
		if err := db.VerifyIndex(); err != nil {
			return fmt.Errorf("rebuilt index still fails verification: %w", err)
		}
		fmt.Printf("index rebuilt: %d entries, %s\n", db.IndexEntries(), sizeStr(db.IndexSizeBytes()))
		return nil

	case "stats":
		fs := flag.NewFlagSet("stats", flag.ExitOnError)
		asJSON := fs.Bool("json", false, "print the full metrics snapshot as JSON")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		db, err := fix.Open(dbdir)
		if err != nil {
			return err
		}
		defer db.Close()
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(db.Metrics())
		}
		fmt.Printf("documents: %d\n", db.NumDocuments())
		s := db.Metrics()
		if db.HasIndex() {
			// Bytes per entry is how long the runs of equal features are
			// and how full the B-tree's leaves are: 3–7 packed by a build,
			// 4–6 once inserts have split them (docs/OBSERVABILITY.md
			// "Index fill").
			fmt.Printf("index: %d entries, %s (%.1f B/entry)\n", s.IndexEntries, sizeStr(s.IndexSizeBytes),
				float64(s.IndexSizeBytes)/float64(max(s.IndexEntries, 1)))
			if err := db.IndexHealth(); err != nil {
				fmt.Printf("index health: degraded (%v)\n", err)
			}
		} else {
			fmt.Println("index: none")
		}
		fmt.Printf("governance: %d admission-rejected, %d deadline-exceeded, %d budget-exceeded, %d panics recovered\n",
			s.RejectedAdmission, s.DeadlineExceeded, s.BudgetExceeded, s.PanicsRecovered)
		return nil

	default:
		usage()
		return fmt.Errorf("unknown command %q", cmd)
	}
}

func openOrCreate(dbdir string) (*fix.DB, error) {
	if _, err := os.Stat(dbdir); os.IsNotExist(err) {
		return fix.Create(dbdir)
	}
	return fix.Open(dbdir)
}

func sizeStr(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}

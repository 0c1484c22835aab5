// Bibliography: the paper's §1 motivating scenario. A collection of
// bibliography records where every author element carries a different
// combination of sub-elements, so clustering indexes (F&B) degenerate to
// singleton classes while FIX keys each record by its spectral features.
//
// The example builds a persistent database with a collection index, runs
// the paper's introductory query //author[phone][email], and reports the
// implementation-independent pruning metrics.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"github.com/fix-index/fix/fix"
)

var kinds = []string{"article", "book", "inproceedings", "www"}

// authorBlock emits an author with a random subset of contact details —
// the structural heterogeneity that motivates feature-based indexing.
func authorBlock(rng *rand.Rand) string {
	var sb strings.Builder
	sb.WriteString("<author><name>a</name>")
	if rng.Intn(2) == 0 {
		sb.WriteString("<address>addr</address>")
	}
	if rng.Intn(2) == 0 {
		sb.WriteString("<email>e@x</email>")
	}
	if rng.Intn(3) == 0 {
		sb.WriteString("<phone>1</phone>")
	}
	if rng.Intn(3) == 0 {
		sb.WriteString("<affiliation>uni</affiliation>")
	}
	sb.WriteString("</author>")
	return sb.String()
}

func record(rng *rand.Rand) string {
	kind := kinds[rng.Intn(len(kinds))]
	var sb strings.Builder
	fmt.Fprintf(&sb, "<%s><title>t</title>", kind)
	for i := rng.Intn(3); i >= 0; i-- {
		sb.WriteString(authorBlock(rng))
	}
	if rng.Intn(2) == 0 {
		sb.WriteString("<year>2006</year>")
	}
	fmt.Fprintf(&sb, "</%s>", kind)
	return sb.String()
}

func main() {
	dir, err := os.MkdirTemp("", "fixbib")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := fix.Create(filepath.Join(dir, "db"))
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	const numDocs = 2000
	for i := 0; i < numDocs; i++ {
		if _, err := db.AddDocumentString(record(rng)); err != nil {
			log.Fatal(err)
		}
	}
	if err := db.BuildIndexWith(context.Background()); err != nil {
		log.Fatal(err)
	}
	if err := db.Save(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bibliography: %d records, index of %d entries (%d KB) in %v\n",
		db.NumDocuments(), db.IndexEntries(), db.IndexSizeBytes()/1024, db.IndexBuildTime().Round(1e6))

	queries := []string{
		"//author[phone][email]", // the paper's introduction query
		"//article/author[affiliation]",
		"//book[author/address]/title",
		"//www/author[phone][affiliation]",
	}
	for _, q := range queries {
		res, err := db.Query(q)
		if err != nil {
			log.Fatal(err)
		}
		m, err := db.Effectiveness(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-36s results=%-5d sel=%5.1f%% pp=%5.1f%% fpr=%5.1f%%\n",
			q, res.Count, m.Selectivity*100, m.PruningPower*100, m.FalsePosRatio*100)
	}

	// Reopen from disk to show the index is durable.
	if err := db.Close(); err != nil {
		log.Fatal(err)
	}
	re, err := fix.Open(filepath.Join(dir, "db"))
	if err != nil {
		log.Fatal(err)
	}
	defer re.Close()
	res, err := re.Query("//author[phone][email]")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reopened database answers //author[phone][email] with %d results\n", res.Count)
}

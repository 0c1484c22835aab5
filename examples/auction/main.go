// Auction: the large-document scenario. One XMark-style auction site
// document is indexed with a positive depth limit, so FIX enumerates one
// depth-limited subpattern per element (paper §4.4) and twig queries are
// answered by pruning inside the document. The example also enables the
// integrated value index (§4.6) and runs value-equality predicates.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"strings"

	"github.com/fix-index/fix/fix"
)

func item(rng *rand.Rand, sellers []string) string {
	var sb strings.Builder
	sb.WriteString("<item><location>loc</location>")
	if rng.Intn(10) > 0 {
		sb.WriteString("<name>gadget</name>")
	}
	fmt.Fprintf(&sb, "<seller>%s</seller>", sellers[rng.Intn(len(sellers))])
	if rng.Intn(2) == 0 {
		sb.WriteString("<payment>cash</payment>")
	}
	sb.WriteString("<description>")
	if rng.Intn(3) == 0 {
		sb.WriteString("<parlist><listitem><text>deep</text></listitem></parlist>")
	} else {
		sb.WriteString("<text>flat</text>")
	}
	sb.WriteString("</description>")
	sb.WriteString("<mailbox>")
	for i := rng.Intn(3); i > 0; i-- {
		sb.WriteString("<mail><from>f</from><to>t</to><text>hello<emph>deal</emph></text></mail>")
	}
	sb.WriteString("</mailbox></item>")
	return sb.String()
}

func main() {
	rng := rand.New(rand.NewSource(7))
	sellers := []string{"alice", "bob", "carol", "dave"}
	var doc strings.Builder
	doc.WriteString("<site><regions><europe>")
	const numItems = 4000
	for i := 0; i < numItems; i++ {
		doc.WriteString(item(rng, sellers))
	}
	doc.WriteString("</europe></regions></site>")

	db, err := fix.CreateMem()
	if err != nil {
		log.Fatal(err)
	}
	if _, err := db.AddDocumentString(doc.String()); err != nil {
		log.Fatal(err)
	}

	// Depth limit 5 covers all the twigs below; Values enables the
	// equality predicates.
	if err := db.BuildIndexWith(context.Background(), fix.DepthLimit(5), fix.Values(), fix.Beta(8)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("auction site: 1 document, %d items; index has %d entries (one per element)\n",
		numItems, db.IndexEntries())

	queries := []string{
		"//item[name]/mailbox/mail[to]",
		"//item/description/parlist/listitem/text",
		"//mail/text/emph",
		`//item[seller="alice"][payment]/name`,
		`//item[seller="nobody"]`,
	}
	for _, q := range queries {
		res, err := db.Query(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-42s results=%-6d candidates=%d of %d entries\n",
			q, res.Count, res.Candidates, res.Entries)
	}
}

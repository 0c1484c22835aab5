package fix_test

import (
	"fmt"
	"log"

	"github.com/fix-index/fix/fix"
)

func Example() {
	db, err := fix.CreateMem()
	if err != nil {
		log.Fatal(err)
	}
	docs := []string{
		`<article><author><phone>1</phone><email>a@x</email></author></article>`,
		`<article><author><email>b@x</email></author></article>`,
		`<book><author><address>somewhere</address></author></book>`,
	}
	for _, d := range docs {
		if _, err := db.AddDocumentString(d); err != nil {
			log.Fatal(err)
		}
	}
	if err := db.BuildIndex(fix.IndexOptions{}); err != nil {
		log.Fatal(err)
	}
	res, err := db.Query(`//author[phone][email]`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d match among %d indexed documents\n", res.Count, res.Entries)
	// Output: 1 match among 3 indexed documents
}

func ExampleDB_QueryDocuments() {
	db, _ := fix.CreateMem()
	db.AddDocumentString(`<article><title>one</title></article>`)
	db.AddDocumentString(`<article><title>two</title><note/></article>`)
	db.AddDocumentString(`<book><title>three</title></book>`)
	db.BuildIndex(fix.IndexOptions{})
	ids, _ := db.QueryDocuments(`//article/title`)
	fmt.Println(ids)
	// Output: [0 1]
}

func ExampleResult_Effectiveness() {
	db, _ := fix.CreateMem()
	db.AddDocumentString(`<a><b/><c/></a>`)
	db.AddDocumentString(`<a><b/></a>`)
	db.AddDocumentString(`<a><c/></a>`)
	db.AddDocumentString(`<a/>`)
	db.BuildIndex(fix.IndexOptions{})
	res, _ := db.Query(`//a[b][c]`)
	m, _ := res.Effectiveness()
	fmt.Printf("sel=%.2f pp=%.2f\n", m.Selectivity, m.PruningPower)
	// Output: sel=0.75 pp=0.75
}

func ExampleDB_Query_values() {
	db, _ := fix.CreateMem()
	db.AddDocumentString(`<rec><publisher>Springer</publisher></rec>`)
	db.AddDocumentString(`<rec><publisher>ACM</publisher></rec>`)
	// Values: true integrates hashed text nodes into the structural
	// index (paper §4.6), so equality predicates prune via the index.
	db.BuildIndex(fix.IndexOptions{Values: true})
	res, _ := db.Query(`//rec[publisher="Springer"]`)
	fmt.Println(res.Count)
	// Output: 1
}

package fix

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// RootLabel returns the name of a document's root element without
// building a tree: it scans tokens until the first start element and
// stops. Sharded collections place documents (and target absolute /label
// queries) by root label; the ingest path reads it off the one parse it
// does (Op.RootLabel), and RootLabel is for whoever has to predict a
// placement without parsing — a load generator, a bulk router. Input that
// ends, or turns syntactically invalid, before a root element yields an
// error.
func RootLabel(r io.Reader) (string, error) {
	dec := xml.NewDecoder(r)
	dec.Strict = false
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return "", fmt.Errorf("fix: no root element in document")
		}
		if err != nil {
			return "", fmt.Errorf("fix: reading root element: %w", err)
		}
		if se, ok := tok.(xml.StartElement); ok {
			return se.Name.Local, nil
		}
	}
}

// RootLabelString is RootLabel for an in-memory document.
func RootLabelString(doc string) (string, error) {
	return RootLabel(strings.NewReader(doc))
}

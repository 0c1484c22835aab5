package xmltree

import (
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
)

// nestedDoc builds <a><a>…</a></a> nested depth levels deep.
func nestedDoc(depth int) string {
	return strings.Repeat("<a>", depth) + strings.Repeat("</a>", depth)
}

func TestParseLimitDepth(t *testing.T) {
	lim := ParseLimits{MaxDepth: 3}
	if _, err := ParseWithLimits(strings.NewReader(nestedDoc(3)), lim); err != nil {
		t.Fatalf("depth at the limit: %v", err)
	}
	_, err := ParseWithLimits(strings.NewReader(nestedDoc(4)), lim)
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("depth over the limit = %v, want ErrLimit", err)
	}
}

func TestParseLimitTokenBytes(t *testing.T) {
	lim := ParseLimits{MaxTokenBytes: 8}
	if _, err := ParseWithLimits(strings.NewReader("<a>12345678</a>"), lim); err != nil {
		t.Fatalf("text at the limit: %v", err)
	}
	_, err := ParseWithLimits(strings.NewReader("<a>123456789</a>"), lim)
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("oversized text = %v, want ErrLimit", err)
	}
	_, err = ParseWithLimits(strings.NewReader("<abcdefghij/>"), lim)
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("oversized element name = %v, want ErrLimit", err)
	}
}

func TestParseLimitChildren(t *testing.T) {
	lim := ParseLimits{MaxChildren: 2}
	if _, err := ParseWithLimits(strings.NewReader("<r><a/><a/></r>"), lim); err != nil {
		t.Fatalf("fan-out at the limit: %v", err)
	}
	_, err := ParseWithLimits(strings.NewReader("<r><a/><a/><a/></r>"), lim)
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("fan-out over the limit = %v, want ErrLimit", err)
	}
}

func TestParseLimitNodes(t *testing.T) {
	lim := ParseLimits{MaxNodes: 3}
	if _, err := ParseWithLimits(strings.NewReader("<r><a/><a/></r>"), lim); err != nil {
		t.Fatalf("nodes at the limit: %v", err)
	}
	_, err := ParseWithLimits(strings.NewReader("<r><a/><a/><a/></r>"), lim)
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("nodes over the limit = %v, want ErrLimit", err)
	}
}

func TestParseDefaultDepthLimit(t *testing.T) {
	// Parse (no explicit limits) must reject hostile nesting beyond the
	// package default rather than risking the stack of later recursive
	// consumers.
	_, err := Parse(strings.NewReader(nestedDoc(DefaultMaxDepth + 1)))
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("hostile depth under default limits = %v, want ErrLimit", err)
	}
}

func TestParseNegativeDisablesLimit(t *testing.T) {
	lim := ParseLimits{MaxDepth: -1}
	n, err := ParseWithLimits(strings.NewReader(nestedDoc(DefaultMaxDepth+10)), lim)
	if err != nil {
		t.Fatalf("negative MaxDepth must disable the bound: %v", err)
	}
	if n == nil {
		t.Fatal("nil root without error")
	}
}

func TestParseLimitErrorsAreNotSyntaxErrors(t *testing.T) {
	// A limit rejection must stay distinguishable from malformed XML.
	_, err := ParseWithLimits(strings.NewReader("<a><b></a>"), ParseLimits{})
	if err == nil || errors.Is(err, ErrLimit) {
		t.Fatalf("malformed XML = %v, want a non-limit parse error", err)
	}
}

// TestParseLimitBytes runs the byte limit over a source that is an
// io.ByteReader, which the limit reader passes through to the decoder, and
// over one that is not, which the decoder buffers itself.
func TestParseLimitBytes(t *testing.T) {
	doc := "<a>12345</a>"
	for name, src := range map[string]func() io.Reader{
		"ByteReader":   func() io.Reader { return strings.NewReader(doc) },
		"plain Reader": func() io.Reader { return struct{ io.Reader }{strings.NewReader(doc)} },
	} {
		if _, err := ParseWithLimits(src(), ParseLimits{MaxBytes: len(doc)}); err != nil {
			t.Fatalf("%s: input exactly at the byte limit: %v", name, err)
		}
		_, err := ParseWithLimits(src(), ParseLimits{MaxBytes: len(doc) - 1})
		if !errors.Is(err, ErrLimit) {
			t.Fatalf("%s: input over the byte limit = %v, want ErrLimit", name, err)
		}
	}
}

// TestParseAllocatesNoReadBuffer holds the parse of a document from an
// io.ByteReader under the byte limit to less than the 4 KB bufio.Reader the
// decoder makes for a source that is not one.
func TestParseAllocatesNoReadBuffer(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		if _, err := ParseString("<a><b>x</b></a>"); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / 100; per >= 4096 {
		t.Fatalf("a parse of a 15-byte document allocates %d bytes, want less than 4096", per)
	}
}

func TestReadDocumentLimitBytes(t *testing.T) {
	doc := "<a>hello</a>"
	got, err := ReadDocument(strings.NewReader(doc), ParseLimits{MaxBytes: len(doc)})
	if err != nil || string(got) != doc {
		t.Fatalf("ReadDocument at the limit = %q, %v", got, err)
	}
	if _, err := ReadDocument(strings.NewReader(doc), ParseLimits{MaxBytes: len(doc) - 1}); !errors.Is(err, ErrLimit) {
		t.Fatalf("ReadDocument over the limit = %v, want ErrLimit", err)
	}
	// Negative disables the bound entirely.
	if _, err := ReadDocument(strings.NewReader(doc), ParseLimits{MaxBytes: -1}); err != nil {
		t.Fatalf("ReadDocument with the bound disabled: %v", err)
	}
}

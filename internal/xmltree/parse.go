package xmltree

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
)

// ErrLimit reports that a document exceeded a parse limit (depth, token
// size, fan-out, node count, or input bytes). Test with errors.Is; the wrapped
// message names the violated dimension. Limit errors are deliberate
// rejections of well-formed but oversized input, distinct from the
// malformed-XML errors Parse otherwise returns.
var ErrLimit = errors.New("xmltree: parse limit exceeded")

// ParseLimits bounds what a single document may cost to parse, so an
// untrusted input fails fast with a typed error instead of exhausting
// memory. A zero field selects the package default; a negative field
// disables that limit.
type ParseLimits struct {
	// MaxDepth caps element nesting. Deep documents are the classic
	// recursion attack: later stages (binary encoding, bisimulation,
	// re-serialization) recurse over the tree, so depth admitted here is
	// stack consumed there.
	MaxDepth int
	// MaxTokenBytes caps the byte length of one element name or one
	// text node.
	MaxTokenBytes int
	// MaxChildren caps the children of one element (fan-out).
	MaxChildren int
	// MaxNodes caps the total number of tree nodes (elements plus text).
	MaxNodes int
	// MaxBytes caps the total serialized input consumed for one
	// document. It is the outermost guard: the other limits bound the
	// parsed tree, MaxBytes bounds the raw bytes before the parser (or a
	// caller buffering for a write-ahead log) trusts them.
	MaxBytes int
}

// Default parse limits: generous for any realistic document (XMark
// depth is ~12; DBLP fan-out is large but bounded), tight enough that a
// hostile input cannot run the process out of memory or stack.
const (
	DefaultMaxDepth      = 512
	DefaultMaxTokenBytes = 1 << 20 // 1 MiB per name or text node
	DefaultMaxChildren   = 1 << 20
	DefaultMaxNodes      = 1 << 26
	DefaultMaxBytes      = 1 << 28 // 256 MiB of raw document input
)

// effective resolves the zero-means-default, negative-means-unlimited
// convention into concrete bounds (0 = unlimited).
func (l ParseLimits) effective() ParseLimits {
	resolve := func(v, def int) int {
		switch {
		case v < 0:
			return 0
		case v == 0:
			return def
		default:
			return v
		}
	}
	return ParseLimits{
		MaxDepth:      resolve(l.MaxDepth, DefaultMaxDepth),
		MaxTokenBytes: resolve(l.MaxTokenBytes, DefaultMaxTokenBytes),
		MaxChildren:   resolve(l.MaxChildren, DefaultMaxChildren),
		MaxNodes:      resolve(l.MaxNodes, DefaultMaxNodes),
		MaxBytes:      resolve(l.MaxBytes, DefaultMaxBytes),
	}
}

// Parse reads a single XML document from r and returns its root element.
// Attributes, comments, processing instructions and namespaces are ignored
// (the paper's data model covers element structure and PCDATA only).
// Whitespace-only text between elements is dropped. The default
// ParseLimits apply; use ParseWithLimits to change them.
func Parse(r io.Reader) (*Node, error) {
	return ParseWithLimits(r, ParseLimits{})
}

// ParseWithLimits is Parse under explicit resource limits; see
// ParseLimits for the zero/negative conventions. Violations return an
// error wrapping ErrLimit.
func ParseWithLimits(r io.Reader, lim ParseLimits) (*Node, error) {
	lim = lim.effective()
	var lr *byteLimitReader
	if lim.MaxBytes > 0 {
		lr = &byteLimitReader{r: r, left: int64(lim.MaxBytes)}
		r = lr
	}
	dec := xml.NewDecoder(r)
	var stack []*Node
	var root *Node
	nodes := 0
	addNode := func() error {
		nodes++
		if lim.MaxNodes > 0 && nodes > lim.MaxNodes {
			return fmt.Errorf("%w: more than %d nodes", ErrLimit, lim.MaxNodes)
		}
		return nil
	}
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			if lr != nil && lr.exceeded {
				return nil, fmt.Errorf("%w: document larger than %d bytes", ErrLimit, lim.MaxBytes)
			}
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if lim.MaxDepth > 0 && len(stack) >= lim.MaxDepth {
				return nil, fmt.Errorf("%w: depth exceeds %d", ErrLimit, lim.MaxDepth)
			}
			if lim.MaxTokenBytes > 0 && len(t.Name.Local) > lim.MaxTokenBytes {
				return nil, fmt.Errorf("%w: element name longer than %d bytes", ErrLimit, lim.MaxTokenBytes)
			}
			if t.Name.Space != "" && !isName(t.Name.Local) {
				return nil, fmt.Errorf("xmltree: parse: element <%s:%s>: the local name does not start with a name-start character", t.Name.Space, t.Name.Local)
			}
			if err := addNode(); err != nil {
				return nil, err
			}
			n := &Node{Label: t.Name.Local}
			if len(stack) == 0 {
				if root != nil {
					return nil, fmt.Errorf("xmltree: parse: multiple root elements")
				}
				root = n
			} else {
				parent := stack[len(stack)-1]
				if lim.MaxChildren > 0 && len(parent.Children) >= lim.MaxChildren {
					return nil, fmt.Errorf("%w: element <%s> has more than %d children", ErrLimit, parent.Label, lim.MaxChildren)
				}
				parent.Children = append(parent.Children, n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: parse: unbalanced end tag </%s>", t.Name.Local)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if lim.MaxTokenBytes > 0 && len(t) > lim.MaxTokenBytes {
				return nil, fmt.Errorf("%w: text node longer than %d bytes", ErrLimit, lim.MaxTokenBytes)
			}
			s := strings.TrimSpace(string(t))
			if s == "" || len(stack) == 0 {
				continue
			}
			if err := addNode(); err != nil {
				return nil, err
			}
			parent := stack[len(stack)-1]
			if lim.MaxChildren > 0 && len(parent.Children) >= lim.MaxChildren {
				return nil, fmt.Errorf("%w: element <%s> has more than %d children", ErrLimit, parent.Label, lim.MaxChildren)
			}
			parent.Children = append(parent.Children, Text(s))
		}
	}
	if root == nil {
		return nil, fmt.Errorf("xmltree: parse: empty document")
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmltree: parse: unterminated element <%s>", stack[len(stack)-1].Label)
	}
	return root, nil
}

// isName reports whether the decoder reads local, the local part of a
// prefixed element name, as an element name of its own. The tree keeps
// only the local part and MarshalString writes it unprefixed, so one that
// is not a name (<A:0/>, whose local part starts with a digit) would not
// parse again. The decoder accepted the whole name, so every character of
// local is a name character and only the first is in question.
func isName(local string) bool {
	_, err := xml.NewDecoder(strings.NewReader("<" + local + "/>")).Token()
	return err == nil
}

// ParseString is a convenience wrapper around Parse.
func ParseString(s string) (*Node, error) {
	return Parse(strings.NewReader(s))
}

// byteLimitReader hands out at most left bytes, then fails the first
// read that would go past them — but only if the source actually has
// more data, so an input of exactly the limit still reaches its EOF.
// exceeded lets the parser map the failure to ErrLimit however the xml
// decoder propagates reader errors.
type byteLimitReader struct {
	r        io.Reader
	left     int64
	exceeded bool
}

func (l *byteLimitReader) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if l.left <= 0 {
		var one [1]byte
		n, err := l.r.Read(one[:])
		if n > 0 {
			l.exceeded = true
			return 0, fmt.Errorf("%w: document input over byte limit", ErrLimit)
		}
		return 0, err
	}
	if int64(len(p)) > l.left {
		p = p[:l.left]
	}
	n, err := l.r.Read(p)
	l.left -= int64(n)
	return n, err
}

// ReadDocument buffers all of r, bounded by the effective MaxBytes of
// lim (the only field it consults); oversized input returns an error
// wrapping ErrLimit. Callers that must hold a document's raw bytes —
// the ingest write-ahead log logs them verbatim — use it so buffering
// is as bounded as the streaming parse itself.
func ReadDocument(r io.Reader, lim ParseLimits) ([]byte, error) {
	max := lim.effective().MaxBytes
	if max <= 0 {
		return io.ReadAll(r)
	}
	data, err := io.ReadAll(io.LimitReader(r, int64(max)+1))
	if err != nil {
		return nil, err
	}
	if len(data) > max {
		return nil, fmt.Errorf("%w: document larger than %d bytes", ErrLimit, max)
	}
	return data, nil
}

// Marshal writes the subtree rooted at n as compact XML (no indentation,
// escaped text).
func Marshal(w io.Writer, n *Node) error {
	if n == nil {
		return nil
	}
	if n.IsText() {
		return xml.EscapeText(w, []byte(n.Value))
	}
	if _, err := io.WriteString(w, "<"+n.Label+">"); err != nil {
		return err
	}
	for _, c := range n.Children {
		if err := Marshal(w, c); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "</"+n.Label+">")
	return err
}

// MarshalString renders the subtree as an XML string.
func MarshalString(n *Node) string {
	var sb strings.Builder
	// strings.Builder writes never fail.
	_ = Marshal(&sb, n)
	return sb.String()
}

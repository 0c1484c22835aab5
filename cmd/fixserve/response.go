package main

import (
	"encoding/json"
	"net/http"
	"strconv"
	"unicode/utf8"

	"github.com/fix-index/fix/fix"
	"github.com/fix-index/fix/internal/collection"
)

// The two query routes are the hot path, so their responses encode
// themselves by hand instead of through writeJSON's reflection and
// indentation. A body is one line: `"key": value` pairs separated by
// ", ", fields in struct order with the structs' omitempty, strings
// escaped the way encoding/json escapes them. A trace is encoded with
// json.Marshal. The bodies must decode to what encoding/json makes of the
// same structs (FuzzQueryResponse), and bench/fixload reads `"count": N`
// and `"partial": true` off them as written here.

// encode returns r's body, built in one buffer sized for it.
func (r *queryResponse) encode() ([]byte, error) {
	b := make([]byte, 0, 128+2*len(r.Query))
	b = append(b, `{"query": `...)
	b = appendString(b, r.Query)
	b = appendInt(b, `, "count": `, r.Count)
	b = appendInt(b, `, "entries": `, r.Entries)
	b = appendInt(b, `, "candidates": `, r.Candidates)
	b = appendInt(b, `, "matched_entries": `, r.Matched)
	if r.ScanFallback {
		b = append(b, `, "scan_fallback": true`...)
	}
	b, err := appendTrace(b, r.Trace)
	return append(b, "}\n"...), err
}

// encode returns r's body, built in one buffer sized for it: the fixed
// text, each string twice over for escapes, and a row's worth per shard.
func (r *colQueryResponse) encode() ([]byte, error) {
	n := 224 + 2*(len(r.Collection)+len(r.Query)) + 24*len(r.Documents)
	for i := range r.Shards {
		n += 160 + 2*len(r.Shards[i].Err)
	}
	b := make([]byte, 0, n)
	b = append(b, `{"collection": `...)
	b = appendString(b, r.Collection)
	b = append(b, `, "query": `...)
	b = appendString(b, r.Query)
	b = appendInt(b, `, "count": `, r.Count)
	b = appendInt(b, `, "entries": `, r.Entries)
	b = appendInt(b, `, "candidates": `, r.Candidates)
	b = appendInt(b, `, "matched": `, r.Matched)
	b = append(b, `, "targeted": `...)
	b = strconv.AppendBool(b, r.Targeted)
	if r.Partial {
		b = append(b, `, "partial": true`...)
	}
	if r.Degraded {
		b = append(b, `, "degraded": true`...)
	}
	b = append(b, `, "shards": `...)
	if r.Shards == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range r.Shards {
			if i > 0 {
				b = append(b, ", "...)
			}
			var err error
			if b, err = appendShard(b, &r.Shards[i]); err != nil {
				return b, err
			}
		}
		b = append(b, ']')
	}
	if len(r.Documents) > 0 {
		b = append(b, `, "documents": [`...)
		for i, id := range r.Documents {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = strconv.AppendUint(b, id, 10)
		}
		b = append(b, ']')
	}
	return append(b, "}\n"...), nil
}

// appendShard appends one collection.ShardResult row.
func appendShard(b []byte, s *collection.ShardResult) ([]byte, error) {
	b = appendInt(b, `{"shard": `, s.Shard)
	b = appendInt(b, `, "count": `, s.Count)
	b = appendInt(b, `, "entries": `, s.Entries)
	b = appendInt(b, `, "candidates": `, s.Candidates)
	b = appendInt(b, `, "matched": `, s.Matched)
	if s.ScanFallback {
		b = append(b, `, "scan_fallback": true`...)
	}
	if s.TimedOut {
		b = append(b, `, "timed_out": true`...)
	}
	if s.Failed {
		b = append(b, `, "failed": true`...)
	}
	if s.Err != "" {
		b = append(b, `, "error": `...)
		b = appendString(b, s.Err)
	}
	b, err := appendTrace(b, s.Trace)
	return append(b, '}'), err
}

// appendTrace appends `, "trace": ` and t's json.Marshal encoding, or
// nothing for a nil t.
func appendTrace(b []byte, t *fix.QueryTrace) ([]byte, error) {
	if t == nil {
		return b, nil
	}
	js, err := json.Marshal(t)
	if err != nil {
		return b, err
	}
	b = append(b, `, "trace": `...)
	return append(b, js...), nil
}

func appendInt(b []byte, key string, v int) []byte {
	return strconv.AppendInt(append(b, key...), int64(v), 10)
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string, escaped as encoding/json
// escapes it: '<', '>' and '&' as \u00XX so the body is safe inside
// HTML, each byte of invalid UTF-8 as the escape of U+FFFD, and U+2028
// and U+2029, which end a line in JavaScript, as their escapes.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
		case r == 0x2028 || r == 0x2029:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// writeBody sends a query route's encoded body: a 200 with its
// Content-Length, in one Write, or a 500 when encoding failed.
func writeBody(w http.ResponseWriter, body []byte, err error) {
	if err != nil {
		http.Error(w, "encoding response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body) // a failed write is a client gone; there is no one to tell
}

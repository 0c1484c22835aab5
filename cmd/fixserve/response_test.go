package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/fix-index/fix/fix"
	"github.com/fix-index/fix/internal/collection"
)

// sameAsEncodingJSON fails t unless body is one line that decodes to
// what encoding/json makes of v.
func sameAsEncodingJSON(t *testing.T, v any, body []byte) {
	t.Helper()
	if strings.IndexByte(string(body), '\n') != len(body)-1 {
		t.Fatalf("body is not exactly one line: %q", body)
	}
	ref, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var got, want any
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("body does not decode: %v\n%s", err, body)
	}
	if err := json.Unmarshal(ref, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("body decodes to\n%v\nencoding/json's to\n%v", got, want)
	}
}

// scatteredResponse is an untraced answer from all four shards.
func scatteredResponse() colQueryResponse {
	return colQueryResponse{Collection: "bib", Query: "//book[author]", Result: collection.Result{
		Count: 10, Entries: 160, Candidates: 12, Matched: 10,
		Shards: []collection.ShardResult{
			{Shard: 0, Count: 4, Entries: 40, Candidates: 4, Matched: 4},
			{Shard: 1, Count: 0, Entries: 40, Candidates: 1, Matched: 0},
			{Shard: 2, Count: 6, Entries: 40, Candidates: 7, Matched: 6},
			{Shard: 3, Count: 0, Entries: 40, Candidates: 0, Matched: 0},
		},
	}}
}

// TestQueryResponseWire pins both query routes' bodies: golden bytes
// for a targeted, a scattered, a partial and degraded, and a traced
// collection answer and for a single-index answer, each one line that
// bench/fixload reads "count" and "partial" off; the appender's one
// allocation; and its string escapes against encoding/json's.
func TestQueryResponseWire(t *testing.T) {
	trace := &fix.QueryTrace{Query: "//title", Start: time.Date(2024, 1, 2, 3, 4, 5, 0, time.UTC),
		Total: 1500, Entries: 40, Candidates: 2, Matched: 2, Count: 2, PlanCached: true, Collection: "bib"}
	traceJSON, err := json.Marshal(trace)
	if err != nil {
		t.Fatal(err)
	}
	partial := scatteredResponse()
	partial.Count, partial.Entries, partial.Candidates, partial.Matched = 4, 120, 5, 4
	partial.Partial, partial.Degraded = true, true
	partial.Shards[1].Entries, partial.Shards[1].Candidates = 0, 0
	partial.Shards[1].TimedOut, partial.Shards[1].Err = true, "context deadline exceeded"
	partial.Shards[2] = collection.ShardResult{Shard: 2, Failed: true, Err: `shard 2: read "data.heap": EOF`}
	partial.Shards[3].ScanFallback = true

	cases := []struct {
		name    string
		resp    interface{ encode() ([]byte, error) }
		count   int
		partial bool
		want    string
	}{
		{"targeted", &colQueryResponse{Collection: "bib", Query: "/article[author]/title", Result: collection.Result{
			Count: 3, Entries: 40, Candidates: 5, Matched: 3, Targeted: true,
			Shards: []collection.ShardResult{{Shard: 2, Count: 3, Entries: 40, Candidates: 5, Matched: 3}},
		}}, 3, false,
			`{"collection": "bib", "query": "/article[author]/title", "count": 3, "entries": 40, "candidates": 5, "matched": 3, "targeted": true, ` +
				`"shards": [{"shard": 2, "count": 3, "entries": 40, "candidates": 5, "matched": 3}]}`},
		{"scattered", func() *colQueryResponse { r := scatteredResponse(); return &r }(), 10, false,
			`{"collection": "bib", "query": "//book[author]", "count": 10, "entries": 160, "candidates": 12, "matched": 10, "targeted": false, ` +
				`"shards": [{"shard": 0, "count": 4, "entries": 40, "candidates": 4, "matched": 4}, ` +
				`{"shard": 1, "count": 0, "entries": 40, "candidates": 1, "matched": 0}, ` +
				`{"shard": 2, "count": 6, "entries": 40, "candidates": 7, "matched": 6}, ` +
				`{"shard": 3, "count": 0, "entries": 40, "candidates": 0, "matched": 0}]}`},
		{"partial+degraded", &partial, 4, true,
			`{"collection": "bib", "query": "//book[author]", "count": 4, "entries": 120, "candidates": 5, "matched": 4, "targeted": false, "partial": true, "degraded": true, ` +
				`"shards": [{"shard": 0, "count": 4, "entries": 40, "candidates": 4, "matched": 4}, ` +
				`{"shard": 1, "count": 0, "entries": 0, "candidates": 0, "matched": 0, "timed_out": true, "error": "context deadline exceeded"}, ` +
				`{"shard": 2, "count": 0, "entries": 0, "candidates": 0, "matched": 0, "failed": true, "error": "shard 2: read \"data.heap\": EOF"}, ` +
				`{"shard": 3, "count": 0, "entries": 40, "candidates": 0, "matched": 0, "scan_fallback": true}]}`},
		{"traced", &colQueryResponse{Collection: "bib", Query: "//title", Result: collection.Result{
			Count: 2, Entries: 40, Candidates: 2, Matched: 2,
			Shards: []collection.ShardResult{{Shard: 0, Count: 2, Entries: 40, Candidates: 2, Matched: 2, Trace: trace}},
		}}, 2, false,
			`{"collection": "bib", "query": "//title", "count": 2, "entries": 40, "candidates": 2, "matched": 2, "targeted": false, ` +
				`"shards": [{"shard": 0, "count": 2, "entries": 40, "candidates": 2, "matched": 2, "trace": ` + string(traceJSON) + `}]}`},
		{"single-index", &queryResponse{Query: "//article[author]", Count: 12, Entries: 300, Candidates: 14, Matched: 12, ScanFallback: true}, 12, false,
			`{"query": "//article[author]", "count": 12, "entries": 300, "candidates": 14, "matched_entries": 12, "scan_fallback": true}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			body, err := c.resp.encode()
			if err != nil {
				t.Fatal(err)
			}
			if string(body) != c.want+"\n" {
				t.Fatalf("body\n%s\nwant\n%s", body, c.want)
			}
			sameAsEncodingJSON(t, c.resp, body)
			// bench/fixload takes the number after the first `"count":`
			// and rejects a body containing `"partial": true`.
			s := string(body)
			if first := strings.Index(s, `"count":`); first < 0 || !strings.HasPrefix(s[first:], fmt.Sprintf(`"count": %d,`, c.count)) {
				t.Errorf("first count in %s is not %d", s, c.count)
			}
			if strings.Contains(s, `"partial": true`) != c.partial {
				t.Errorf("partial = %v, but the body reads %s", c.partial, s)
			}
		})
	}

	scattered := scatteredResponse()
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := scattered.encode(); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Errorf("encoding an untraced four-shard answer allocates %v times, want at most 1", allocs)
	}

	for _, s := range []string{
		`<a href="x">&amp;</a>`, `quote " and back \ slash`, "\x00\x01\x1f\x7f\b\f\n\r\t",
		"bad \xff\xfe utf-8 \xe2\x82", "line" + string(rune(0x2028)) + "and" + string(rune(0x2029)) + "para", "héllo, 世界",
	} {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendString(nil, s); string(got) != string(want) {
			t.Errorf("appendString(%q) = %s, encoding/json writes %s", s, got, want)
		}
	}
}

// TestQueryResponseServed checks both query routes send their one-line
// body with a Content-Length, traced and not.
func TestQueryResponseServed(t *testing.T) {
	s := newServer(newTestDB(t), defaultTestConfig())
	cs := newTestColServer(t, collection.Options{}, defaultTestConfig())
	createCollection(t, cs, `{"name":"books","shards":4}`)
	if rec := cs.do(t, http.MethodPost, "/c/books/ingest", "application/xml", `<book><title>one</title></book>`); rec.Code != http.StatusOK {
		t.Fatalf("ingest: status = %d, body %s", rec.Code, rec.Body)
	}
	q := url.QueryEscape("//title")
	for _, path := range []string{"/query?q=" + q, "/query?trace=1&q=" + q, "/c/books/query?q=" + q, "/c/books/query?q=" + q + "&trace=1"} {
		var rec *httptest.ResponseRecorder
		if strings.HasPrefix(path, "/c/") {
			rec = cs.do(t, http.MethodGet, path, "", "")
		} else {
			rec = get(t, s, path)
		}
		body := rec.Body.String()
		if rec.Code != http.StatusOK || strings.IndexByte(body, '\n') != len(body)-1 {
			t.Fatalf("%s: status %d, body %q; want 200 and one line", path, rec.Code, body)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(body)) {
			t.Errorf("%s: Content-Length %q for a %d-byte body", path, cl, len(body))
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", path, ct)
		}
		if strings.Contains(path, "trace=1") != strings.Contains(body, `"trace": {`) {
			t.Errorf("%s: trace presence wrong in %s", path, body)
		}
	}
}

// FuzzQueryResponse checks the appender against encoding/json on random
// strings (invalid UTF-8 included), counts, flags and shard rows: the
// bodies must decode to the same value.
func FuzzQueryResponse(f *testing.F) {
	f.Add("bib", "//book[author]", "context deadline exceeded", 10, 160, uint8(4), uint16(0x0a5))
	f.Add("", "", "", 0, 0, uint8(0), uint16(0))
	f.Add("c<&>", "//a[b=\"\xff\"]", "bad \xe2\x80\xa8 \x00", -1, 1<<40, uint8(1), uint16(0xffff))
	f.Fuzz(func(t *testing.T, name, query, errText string, count, entries int, nshards uint8, flags uint16) {
		bit := func(i int) bool { return flags&(1<<i) != 0 }
		res := collection.Result{Count: count, Entries: entries, Candidates: count / 2, Matched: -count,
			Targeted: bit(0), Partial: bit(1), Degraded: bit(2)}
		if !bit(3) {
			res.Shards = make([]collection.ShardResult, nshards%9)
		}
		for i := range res.Shards {
			row := &res.Shards[i]
			row.Shard, row.Count, row.Entries, row.Candidates, row.Matched = i, count+i, entries-i, i*count, entries/(i+1)
			rf := flags >> (i % 8)
			row.ScanFallback, row.TimedOut, row.Failed = rf&16 != 0, rf&32 != 0, rf&64 != 0
			if rf&128 != 0 {
				row.Err = errText
			}
			if rf&256 != 0 {
				row.Trace = &fix.QueryTrace{Query: query, Count: count, Collection: name, Shard: i}
			}
		}
		if bit(12) {
			res.Documents = []uint64{uint64(entries), collection.GlobalID(int(nshards), uint32(count))}
		}
		cr := &colQueryResponse{Collection: name, Query: query, Result: res}
		body, err := cr.encode()
		if err != nil {
			t.Fatal(err)
		}
		sameAsEncodingJSON(t, cr, body)

		qr := &queryResponse{Query: query, Count: count, Entries: entries, Candidates: -count, Matched: count / 3, ScanFallback: bit(13)}
		if bit(14) {
			qr.Trace = &fix.QueryTrace{Query: errText, Entries: entries}
		}
		if body, err = qr.encode(); err != nil {
			t.Fatal(err)
		}
		sameAsEncodingJSON(t, qr, body)
	})
}

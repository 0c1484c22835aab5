// Shard routing: documents are placed, and root-pinned queries
// targeted, by the FNV-1a hash of the root element label. The rule
// mirrors the paper's root-label key prefix (FIX §5.1): because every
// index entry is keyed by its document's root label first, a query
// whose first step names the root can confine its probe — here, to one
// shard; inside the shard, to one key range.

package collection

import (
	"hash/fnv"

	"github.com/fix-index/fix/internal/xpath"
)

// ShardForLabel returns the shard a document with the given root label
// belongs to: fnv1a32(label) mod n. The mapping is a pure function of
// the label and the shard count, so routing needs no directory and any
// process with the manifest routes identically.
func ShardForLabel(label string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(label))
	return int(h.Sum32() % uint32(n))
}

// ScatterAll is the queryTarget result meaning "probe every shard".
const ScatterAll = -1

// queryTarget decides the fan-out of a query: a path whose first step
// is the child axis (/label/...) can only match documents rooted at
// label, all of which live in one shard — return it. A leading
// descendant axis (//label/...) matches at any depth in any document,
// so it must scatter. The router reads the first step only: a text that
// does not start with one also scatters, and a text malformed past it
// reaches its one shard — either way the shards reject it with the real
// fix.ErrBadQuery, keeping the router's grammar knowledge advisory
// rather than load-bearing.
func queryTarget(expr string, nshards int) int {
	if nshards <= 1 {
		return 0
	}
	axis, name, ok := xpath.FirstStep(expr)
	if !ok || axis != xpath.Child {
		return ScatterAll
	}
	return ShardForLabel(name, nshards)
}

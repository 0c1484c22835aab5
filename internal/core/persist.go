package core

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"github.com/fix-index/fix/internal/btree"
	"github.com/fix-index/fix/internal/matrix"
	"github.com/fix-index/fix/internal/storage"
)

// On-disk index layout under Options.Dir:
//
//	fix.btree      B-tree of feature keys (checksummed 4 KiB pages)
//	fix.edges      edge-label encoder
//	fix.meta       options and counters, line-oriented
//	fix.journal    shadow-commit journal, present only mid-Save or after
//	               a crash; see journal.go
//
// The primary store and label dictionary belong to the database layer and
// are persisted by it; the index only records the parameters needed to
// interpret its keys against them.

// metaVersion 2 adds the records field, which ties the committed index to
// the number of primary-store records it covers. Versions 3 to 6 spell the
// B-tree anew: version 3 a value as two uvarints a pointer and no flag
// byte, version 4 a key as (label, σ, sequence number) without λmin,
// version 5 a run of equal (label, σ) as chunks keyed by their first
// pointer — and its entries field counts the postings, where earlier
// versions' seq field numbered the entries ever inserted — and version 6
// a chunk with its pair sketch after the head and a head bit for "no
// posting has a tail" (the chunk codec, key.go), version 7 a head that
// also holds the depth to which the chunk's units agree, and version 8 a
// chunk with no spectrum tails: a head of the count and the agreement, and
// one spelling of a posting. Version 8 also drops the spectrumk line and
// the clustered one, always false since the clustered option went (an
// index written with it is version 3). Nothing in an entry tells the
// spellings apart, so the version does. Open reads the fields of any
// version from minMetaVersion on — so the database layer's recovery still
// finds the records an index covers — and degrades an index older than
// metaVersion, which a rebuild writes anew. A format change bumps
// metaVersion only.
const metaVersion = 8

// minMetaVersion is the oldest fix.meta Open reads.
const minMetaVersion = 2

// encodeMeta renders the fix.meta payload.
func (ix *Index) encodeMeta() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "version %d\n", metaVersion)
	fmt.Fprintf(&b, "depthlimit %d\n", ix.opts.DepthLimit)
	fmt.Fprintf(&b, "values %t\n", ix.opts.Values)
	fmt.Fprintf(&b, "beta %d\n", ix.opts.Beta)
	fmt.Fprintf(&b, "edgebudget %d\n", ix.opts.EdgeBudget)
	fmt.Fprintf(&b, "paperpruning %t\n", ix.opts.PaperPruning)
	fmt.Fprintf(&b, "norootlabel %t\n", ix.opts.NoRootLabel)
	fmt.Fprintf(&b, "alpha %d\n", ix.vh.alpha)
	fmt.Fprintf(&b, "entries %d\n", ix.entries.Load())
	fmt.Fprintf(&b, "oversize %d\n", ix.oversize)
	fmt.Fprintf(&b, "maxdocdepth %d\n", ix.maxDocDepth)
	fmt.Fprintf(&b, "records %d\n", ix.store.NumRecords())
	return b.Bytes()
}

// Save commits the index durably using the shadow-commit protocol: the
// dirty B-tree pages and the new fix.meta/fix.edges contents are first
// written and fsynced to fix.journal, then applied to the real files, and
// the journal is removed. Nothing else writes fix.btree between two Saves,
// so a crash at any point leaves a state that Open (via Recover) resolves
// to exactly the previous or the new commit. For in-memory indexes (empty
// Dir) Save reduces to a flush.
func (ix *Index) Save() error {
	if err := ix.Health(); err != nil {
		return fmt.Errorf("core: refusing to save a degraded index: %w", err)
	}
	if ix.opts.Dir == "" {
		return ix.bt.Flush()
	}
	var eb bytes.Buffer
	if _, err := ix.enc.WriteTo(&eb); err != nil {
		return err
	}
	meta, edges := ix.encodeMeta(), eb.Bytes()
	fsys := ix.opts.filesystem()
	jpath := filepath.Join(ix.opts.Dir, journalName)
	jf, err := fsys.create(jpath)
	if err != nil {
		return err
	}
	if err := writeJournal(jf, ix.bt, meta, edges); err != nil {
		_ = jf.Close()
		return err
	}
	if err := jf.Sync(); err != nil { // commit point
		_ = jf.Close()
		return err
	}
	if err := jf.Close(); err != nil {
		return err
	}
	// Apply. Any failure from here on leaves the valid journal in place;
	// the next Open replays it.
	if err := ix.bt.Flush(); err != nil {
		return err
	}
	if err := atomicWrite(fsys, filepath.Join(ix.opts.Dir, "fix.edges"), edges); err != nil {
		return err
	}
	if err := atomicWrite(fsys, filepath.Join(ix.opts.Dir, "fix.meta"), meta); err != nil {
		return err
	}
	return os.Remove(jpath)
}

// Open loads a persisted index from dir and attaches it to the primary
// store it was built over. The store must carry the same dictionary as at
// build time (the database layer guarantees this).
//
// Open first lets Recover resolve any half-finished commit, then
// validates the metadata. Detectable damage that does not compromise
// query correctness — a corrupt B-tree, an index written in the spelling
// of a version before metaVersion, or an index that is stale relative to the store — degrades the index instead
// of failing: Health reports the cause and queries fall back to a full
// scan of the primary store until RebuildIndex runs.
func Open(st *storage.Store, dir string) (*Index, error) {
	if err := Recover(dir); err != nil {
		return nil, err
	}
	ix := &Index{store: st, dict: st.Dict()}
	ix.opts.Dir = dir
	version, alpha, records, err := ix.readMeta()
	if err != nil {
		return nil, err
	}
	if err := validateMeta(ix, alpha, records); err != nil {
		return nil, err
	}
	ix.vh = valueHasher{alpha: alpha, beta: ix.opts.Beta}
	if version < metaVersion {
		// Its entries are in a spelling nothing reads any more. Only the
		// first health problem is kept, so a directory older still — a
		// FIXBT002 page format — is reported by its meta version too.
		ix.setHealth(fmt.Errorf("%w: the index is version %d, this version reads and writes %d (runs of one (label, σ) in chunks of delta-coded pointers, each with a sketch of its units' edge label pairs and the depth to which they agree): rebuild the index — fixindex repair, or the maintainer of a served database does it", ErrCorrupt, version, metaVersion))
	}

	ef, err := os.Open(filepath.Join(dir, "fix.edges"))
	if err != nil {
		return nil, err
	}
	ix.enc, err = matrix.ReadEdgeEncoder(ef)
	_ = ef.Close()
	if err != nil {
		return nil, err
	}

	// A store that grew or shrank since the commit means the index no
	// longer covers it: entries could dangle, and newer documents would be
	// invisible to the range scan (a false negative). Degrade rather than
	// serve wrong answers.
	if records != st.NumRecords() {
		ix.setHealth(fmt.Errorf("index covers %d records but the store holds %d", records, st.NumRecords()))
	}

	bf, err := osFS.open(filepath.Join(dir, "fix.btree"))
	if err != nil {
		if os.IsNotExist(err) {
			ix.setHealth(fmt.Errorf("%w: fix.btree is missing", ErrCorrupt))
			return ix, nil
		}
		return nil, err
	}
	bt, err := btree.Open(bf)
	if err != nil {
		_ = bf.Close()
		if errors.Is(err, ErrCorrupt) {
			ix.setHealth(err)
			return ix, nil
		}
		return nil, err
	}
	ix.bt = bt
	return ix, nil
}

// readMeta reads fix.meta under ix.opts.Dir into ix and returns the fields
// ix does not hold: the version, from minMetaVersion to metaVersion, the
// value-hash α and the number of primary-store records the commit covers.
func (ix *Index) readMeta() (version int, alpha uint32, records int, err error) {
	mf, err := os.Open(filepath.Join(ix.opts.Dir, "fix.meta"))
	if err != nil {
		return 0, 0, 0, err
	}
	defer mf.Close()
	r := bufio.NewReader(mf)
	readField := func(name string, dst interface{}) error {
		var got string
		if _, err := fmt.Fscan(r, &got, dst); err != nil {
			return fmt.Errorf("core: reading meta field %s: %w", name, err)
		}
		if got != name {
			return fmt.Errorf("core: meta field %q, want %q", got, name)
		}
		return nil
	}
	if err := readField("version", &version); err != nil {
		return 0, 0, 0, err
	}
	if version < minMetaVersion || version > metaVersion {
		return 0, 0, 0, fmt.Errorf("core: unsupported index version %d (want %d)", version, metaVersion)
	}
	// The count of entries of an index before version 5, whose B-tree
	// nothing reads, is whatever its seq says. Before version 8 the meta
	// also spells clustered and spectrumk, which an index of such a
	// version — degraded by it — need not keep.
	var entries int64
	count := "entries"
	if version < 5 {
		count = "seq"
	}
	var clustered bool
	var spectrumK int
	fields := []struct {
		name  string
		dst   interface{}
		until int // when not 0, the version from which the field is gone
	}{
		{"depthlimit", &ix.opts.DepthLimit, 0},
		{"clustered", &clustered, 8},
		{"values", &ix.opts.Values, 0},
		{"beta", &ix.opts.Beta, 0},
		{"edgebudget", &ix.opts.EdgeBudget, 0},
		{"spectrumk", &spectrumK, 8},
		{"paperpruning", &ix.opts.PaperPruning, 0},
		{"norootlabel", &ix.opts.NoRootLabel, 0},
		{"alpha", &alpha, 0},
		{count, &entries, 0},
		{"oversize", &ix.oversize, 0},
		{"maxdocdepth", &ix.maxDocDepth, 0},
		{"records", &records, 0},
	}
	for _, f := range fields {
		if f.until != 0 && version >= f.until {
			continue
		}
		if err := readField(f.name, f.dst); err != nil {
			return 0, 0, 0, err
		}
	}
	ix.entries.Store(entries)
	return version, alpha, records, nil
}

// CommittedRecords returns how many primary-store records the index
// committed under dir covers, in a fix.meta of any version Open reads. A database
// whose ingest log outlived the checkpoint that absorbed it — the crash
// fell between the index's commit and the log's reset — finds the index
// ahead of the log's base by the documents the log adds, and replays the
// log onto the heap alone.
func CommittedRecords(dir string) (int, error) {
	if err := Recover(dir); err != nil {
		return 0, err
	}
	ix := &Index{}
	ix.opts.Dir = dir
	_, _, records, err := ix.readMeta()
	return records, err
}

// validateMeta rejects metadata that cannot describe a working index, so
// a damaged or hand-edited fix.meta fails loudly instead of constructing
// an index that misbehaves later.
func validateMeta(ix *Index, alpha uint32, records int) error {
	if ix.opts.DepthLimit < 0 {
		return fmt.Errorf("core: invalid meta: depthlimit %d is negative", ix.opts.DepthLimit)
	}
	if ix.opts.Beta == 0 {
		return fmt.Errorf("core: invalid meta: beta must be positive")
	}
	if ix.opts.EdgeBudget < 0 {
		return fmt.Errorf("core: invalid meta: edgebudget %d is negative", ix.opts.EdgeBudget)
	}
	if alpha > ix.dict.MaxID() {
		return fmt.Errorf("core: invalid meta: alpha %d exceeds the dictionary's max label id %d", alpha, ix.dict.MaxID())
	}
	if records < 0 {
		return fmt.Errorf("core: invalid meta: records %d is negative", records)
	}
	if n := ix.entries.Load(); n < 0 {
		return fmt.Errorf("core: invalid meta: entries %d is negative", n)
	}
	return nil
}

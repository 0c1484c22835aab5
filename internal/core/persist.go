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
// fix.meta's clustered line is always false. An index written with the
// retired clustered option says true: its values carry a second pointer
// nothing reads, so Open degrades it and a rebuild writes it anew.
//
// The primary store and label dictionary belong to the database layer and
// are persisted by it; the index only records the parameters needed to
// interpret its keys against them.

// metaVersion 2 adds the records field, which ties the committed index to
// the number of primary-store records it covers. Version 3 has the same
// fields and a new spelling of the B-tree's values: two uvarints a pointer
// and no flag byte (entryValue). Nothing in a value tells the spellings
// apart, so the version does: Open reads a version-2 fix.meta and degrades
// the index it describes, which a rebuild writes anew (oldMetaVersion).
const metaVersion = 3

// oldMetaVersion is the version before metaVersion: its fields are read,
// so the database layer's recovery still finds the records it covers, and
// its B-tree is not.
const oldMetaVersion = 2

// encodeMeta renders the fix.meta payload.
func (ix *Index) encodeMeta() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "version %d\n", metaVersion)
	fmt.Fprintf(&b, "depthlimit %d\n", ix.opts.DepthLimit)
	fmt.Fprintf(&b, "clustered %t\n", false)
	fmt.Fprintf(&b, "values %t\n", ix.opts.Values)
	fmt.Fprintf(&b, "beta %d\n", ix.opts.Beta)
	fmt.Fprintf(&b, "edgebudget %d\n", ix.opts.EdgeBudget)
	fmt.Fprintf(&b, "spectrumk %d\n", ix.opts.SpectrumK)
	fmt.Fprintf(&b, "paperpruning %t\n", ix.opts.PaperPruning)
	fmt.Fprintf(&b, "norootlabel %t\n", ix.opts.NoRootLabel)
	fmt.Fprintf(&b, "alpha %d\n", ix.vh.alpha)
	fmt.Fprintf(&b, "seq %d\n", ix.seq)
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
// query correctness — a corrupt B-tree, an index written in the value
// spelling of oldMetaVersion or with the retired clustered option, or an
// index that is stale relative to the store — degrades the index instead
// of failing: Health reports the cause and queries fall back to a full
// scan of the primary store until RebuildIndex runs.
func Open(st *storage.Store, dir string) (*Index, error) {
	if err := Recover(dir); err != nil {
		return nil, err
	}
	ix := &Index{store: st, dict: st.Dict()}
	ix.opts.Dir = dir
	version, alpha, records, clustered, err := ix.readMeta()
	if err != nil {
		return nil, err
	}
	if err := validateMeta(ix, alpha, records); err != nil {
		return nil, err
	}
	ix.vh = valueHasher{alpha: alpha, beta: ix.opts.Beta}
	if version == oldMetaVersion {
		// Its values are in a spelling nothing reads any more. Only the
		// first health problem is kept, so a directory older still — a
		// FIXBT002 page format — is reported by its meta version too.
		ix.setHealth(fmt.Errorf("%w: the index is version %d, this version reads and writes %d (pointers spelled as uvarints, no flag byte): rebuild the index — fixindex repair, or the maintainer of a served database does it", ErrCorrupt, version, metaVersion))
	}
	if clustered {
		ix.setHealth(fmt.Errorf("%w: the index is clustered, a layout this version no longer builds or reads (its values carry a second pointer): rebuild the index — fixindex repair, or the maintainer of a served database does it", ErrCorrupt))
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
// ix does not hold: the version, metaVersion or oldMetaVersion, the
// value-hash α, the number of primary-store records the commit covers and
// whether the index was built clustered.
func (ix *Index) readMeta() (version int, alpha uint32, records int, clustered bool, err error) {
	mf, err := os.Open(filepath.Join(ix.opts.Dir, "fix.meta"))
	if err != nil {
		return 0, 0, 0, false, err
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
		return 0, 0, 0, false, err
	}
	if version != metaVersion && version != oldMetaVersion {
		return 0, 0, 0, false, fmt.Errorf("core: unsupported index version %d (want %d)", version, metaVersion)
	}
	fields := []struct {
		name string
		dst  interface{}
	}{
		{"depthlimit", &ix.opts.DepthLimit},
		{"clustered", &clustered},
		{"values", &ix.opts.Values},
		{"beta", &ix.opts.Beta},
		{"edgebudget", &ix.opts.EdgeBudget},
		{"spectrumk", &ix.opts.SpectrumK},
		{"paperpruning", &ix.opts.PaperPruning},
		{"norootlabel", &ix.opts.NoRootLabel},
		{"alpha", &alpha},
		{"seq", &ix.seq},
		{"oversize", &ix.oversize},
		{"maxdocdepth", &ix.maxDocDepth},
		{"records", &records},
	}
	for _, f := range fields {
		if err := readField(f.name, f.dst); err != nil {
			return 0, 0, 0, false, err
		}
	}
	return version, alpha, records, clustered, nil
}

// CommittedRecords returns how many primary-store records the index
// committed under dir covers, in a fix.meta of either version. A database
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
	_, _, records, _, err := ix.readMeta()
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
	if ix.opts.SpectrumK < 0 || ix.opts.SpectrumK > maxSpectrumK {
		return fmt.Errorf("core: invalid meta: spectrumk %d outside [0, %d]", ix.opts.SpectrumK, maxSpectrumK)
	}
	if alpha > ix.dict.MaxID() {
		return fmt.Errorf("core: invalid meta: alpha %d exceeds the dictionary's max label id %d", alpha, ix.dict.MaxID())
	}
	if records < 0 {
		return fmt.Errorf("core: invalid meta: records %d is negative", records)
	}
	return nil
}

package core

import "fmt"

// Metrics are the paper's implementation-independent effectiveness
// measures (§6.2):
//
//	sel = 1 - rst/ent   query selectivity
//	pp  = 1 - cdt/ent   pruning power of the index
//	fpr = 1 - rst/cdt   false-positive ratio among candidates
//
// where ent is the number of index entries, cdt the number of candidates
// the index's features return, and rst the number of entries producing at
// least one final result. The pair sketch is not one of the paper's
// features: the entries it drops count in cdt (Result.PaperCandidates),
// so the measures stay the paper's.
type Metrics struct {
	Ent, Cdt, Rst int
	Sel, PP, FPR  float64
}

// Metrics returns the §6.2 measures of one indexed query's run: ent its
// Entries, cdt its PaperCandidates and rst its Matched. By the index's
// no-false-negative property the result-producing entries are a subset of
// the candidates, so rst is measured on them.
func (r Result) Metrics() Metrics {
	ent, cdt, rst := r.Entries, r.PaperCandidates(), r.Matched
	m := Metrics{Ent: ent, Cdt: cdt, Rst: rst}
	if ent > 0 {
		m.Sel = 1 - float64(rst)/float64(ent)
		m.PP = 1 - float64(cdt)/float64(ent)
	}
	if cdt > 0 {
		m.FPR = 1 - float64(rst)/float64(cdt)
	}
	return m
}

func (m Metrics) String() string {
	return fmt.Sprintf("sel=%.2f%% pp=%.2f%% fpr=%.2f%% (ent=%d cdt=%d rst=%d)",
		m.Sel*100, m.PP*100, m.FPR*100, m.Ent, m.Cdt, m.Rst)
}

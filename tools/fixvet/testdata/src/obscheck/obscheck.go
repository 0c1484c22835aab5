// Package fixture seeds the obscheck trace rules with one violation and
// one compliant counterpart each. It imports the real internal/obs so
// the *obs.Trace type resolves exactly as it does in the tree.
package fixture

import (
	"expvar"
	"sync/atomic"
	"time"

	"github.com/fix-index/fix/internal/obs"
)

var strayCounter atomic.Int64 // want `package-level atomic counter strayCounter outside internal/obs`

// cursorHolder is fine: struct-field atomics are state, not metrics.
type cursorHolder struct {
	next atomic.Int64
}

func localAtomicOK() int64 {
	var inFlight atomic.Int64 // ok: function-local
	inFlight.Add(1)
	var h cursorHolder
	h.next.Add(1)
	_ = strayCounter.Load()
	return inFlight.Load() + h.next.Load()
}

func unguarded(tr *obs.Trace) {
	tr.Count = 1 // want `write through \*obs\.Trace tr without a nil guard`
	if tr != nil {
		tr.Matched++ // ok: guarded by the enclosing if
	}
}

func guarded(tr *obs.Trace, n int) time.Duration {
	if tr == nil {
		return 0
	}
	probeStart := time.Now()
	tr.Phase[obs.PhaseProbe] += time.Since(probeStart) // ok: early return above
	if n > 0 && tr != nil {
		tr.Scanned += n // ok: && conjunct guard
	}
	return tr.Phase[obs.PhaseProbe]
}

func register() {
	expvar.Publish("fixture", nil) // want `expvar.Publish outside internal/obs`
}

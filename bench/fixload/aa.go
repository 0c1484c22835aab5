package main

import (
	"context"
	"fmt"
	"os"
)

// bounds are the end-to-end metrics' regression bounds, the same numbers
// BENCHMARK.json carries; a test keeps the two in step. issueBounds are
// the ones the benchmark's issue asked for, which the A/A check reports
// against as well: the timings' committed bounds are wider because the
// driver requires a metric's run-to-run spread on this sandbox to stay
// within its bound (bench/README.md, "About the bounds").
var (
	bounds = map[string]float64{
		"setup_s":                  0.25,
		"ops_per_s":                0.25,
		"op_p50_ms":                0.25,
		"op_p95_ms":                0.25,
		"server_rss_mb":            0.10,
		"disk_bytes_per_user_byte": 0.01,
	}
	issueBounds = map[string]float64{
		"setup_s":                  0.10,
		"ops_per_s":                0.08,
		"op_p50_ms":                0.10,
		"op_p95_ms":                0.10,
		"server_rss_mb":            0.10,
		"disk_bytes_per_user_byte": 0.01,
	}
)

// higherIsBetter names the metrics whose worsening is a decrease.
var higherIsBetter = map[string]bool{"ops_per_s": true}

// worsening is how much worse b is than a, as a share of a; negative
// when b is better.
func worsening(name string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if higherIsBetter[name] {
		return (a - b) / a
	}
	return (b - a) / a
}

// runAA is the A/A self-check: the whole benchmark 2×n times on the
// same binaries, sets A and B alternating, pair i of both sets on seed
// base+i. It prints, per workload and metric, the two medians, their
// relative difference, each set's run-to-run spread (IQR over median),
// the bound, the issue's bound and, for contrast, the larger spread of
// the value the same runs observed, as a Markdown table. It fails when a
// difference or a spread exceeds its bound, the driver's two rules, and
// says how the same numbers fare against the issue's bounds.
func runAA(ctx context.Context, e *env, todo []spec, seed int64, seconds, n int) int {
	type key struct{ workload, metric string }
	var sets, observed [2]map[key][]float64
	for set := range sets {
		sets[set], observed[set] = map[key][]float64{}, map[key][]float64{}
	}
	for i := 0; i < n; i++ {
		for set := 0; set < 2; set++ {
			for _, sp := range todo {
				res, err := runE2E(ctx, e, sp, seed+int64(i), seconds)
				if err != nil {
					fmt.Fprintln(os.Stderr, "fixload:", err)
					return 1
				}
				if res.Failed > 0 {
					fmt.Fprintf(os.Stderr, "fixload: %s seed %d: %d of %d operations failed\n", sp.name, seed+int64(i), res.Failed, res.Attempted)
					return 1
				}
				for name, m := range res.Metrics {
					k := key{sp.name, name}
					sets[set][k] = append(sets[set][k], m.Value)
					if o, ok := res.Observed[name]; ok {
						observed[set][k] = append(observed[set][k], o)
					}
				}
				fmt.Fprintf(os.Stderr, "fixload: aa pair %d/%d set %c %s done\n", i+1, n, 'A'+set, sp.name)
			}
		}
	}
	code := 0
	pairs, withinHalf, issueDiffs, issueSpreads := 0, 0, 0, 0
	fmt.Printf("A/A self-check: %d pairs, %d s per run, seeds %d..%d, one client, CPU %d\n\n", n, seconds, seed, seed+int64(n)-1, pinnedCPU)
	fmt.Println("| workload/metric | median A | median B | B worse by | spread A | spread B | bound | issue's bound | observed spread | verdict |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|---|")
	for _, sp := range todo {
		for _, mu := range e2eUnits {
			k := key{sp.name, mu[0]}
			a, b := sets[0][k], sets[1][k]
			ma, mb := median(a), median(b)
			w, bound, issue := worsening(mu[0], ma, mb), bounds[mu[0]], issueBounds[mu[0]]
			sa, sb := iqrPct(a)/100, iqrPct(b)/100
			gated := mu[0] != "setup_s" // the driver does not check the spread of set-up time
			verdict := "ok"
			if max(w, -w) > bound || (gated && max(sa, sb) > bound) {
				verdict = "FAIL"
				code = 1
			} else if max(w, -w) > issue || (gated && max(sa, sb) > issue) {
				verdict = "ok, unresolved at the issue's bound"
			}
			pairs++
			if max(w, -w) < bound/2 {
				withinHalf++
			}
			if max(w, -w) > issue {
				issueDiffs++
			}
			if gated && max(sa, sb) > issue {
				issueSpreads++
			}
			obs := "—"
			if o := observed[0][k]; len(o) > 0 {
				obs = fmt.Sprintf("%.1f%%", max(iqrPct(o), iqrPct(observed[1][k])))
			}
			fmt.Printf("| %s/%s | %.5g | %.5g | %+.1f%% | %.1f%% | %.1f%% | %.0f%% | %.0f%% | %s | %s |\n",
				sp.name, mu[0], ma, mb, 100*w, 100*sa, 100*sb, 100*bound, 100*issue, obs, verdict)
		}
	}
	fmt.Printf("\n%d of %d pairs of medians differ by less than half their bound.\n", withinHalf, pairs)
	fmt.Printf("Against the issue's bounds: %d differences of medians and %d spreads exceed theirs.\n", issueDiffs, issueSpreads)
	return code
}

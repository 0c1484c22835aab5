// Command fixload is the repository's benchmark: it builds cmd/fixserve
// and cmd/fixindex from the working tree, drives the real fixserve
// binary over real HTTP with one closed-loop client on one keep-alive
// connection and one CPU, checks every answer, and reports end-to-end
// metrics on four workloads (xmark_read, bib_scatter, bib_mixed,
// xmark_build): the quiet latency of the operation mix, with what the
// rounds observed beside it. A separate traced run (-trace 1) replays the same
// operations at each depth of the stack and prints the per-layer ledger.
// bench/README.md is the reference: metric dictionary, protocol, why
// each workload exists, and how to read a result.
//
// Usage (from the repository root, or through bench/run.sh):
//
//	go run -C bench ./fixload                         # all four workloads
//	go run -C bench ./fixload -workload bib_scatter -seed 7 -seconds 20
//	go run -C bench ./fixload -workload xmark_read -trace 1
//	go run -C bench ./fixload -aa 5                   # A/A self-check
//
// The last line of standard output of a single-workload run is one JSON
// object {"correct","attempted","failed","metrics"}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

// runDeadline is how long a single-workload run may take once the
// binaries are built; a run takes 20 to 40 s.
const runDeadline = 150 * time.Second

// pinnedCPU is the CPU the harness and its children are confined to, -1
// when pinning failed.
var pinnedCPU int

func main() {
	var err error
	workload := flag.String("workload", "", "workload to run (xmark_read, bib_scatter, bib_mixed, xmark_build); empty runs all four")
	seed := flag.Int64("seed", 1, "seed of the generated data and operation order")
	seconds := flag.Int("seconds", defaultSeconds, "measured seconds per workload (sets the number of rounds)")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end measurement")
	aa := flag.Int("aa", 0, "run the whole benchmark 2×N times on the same binaries and compare the two sets")
	reopen := flag.String("reopen", "", "internal: time fix.Open of this directory and exit (the child of a traced run)")
	flag.Parse()
	if *reopen != "" {
		os.Exit(reopenMain(*reopen))
	}
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: fixload [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-aa N]")
		os.Exit(2)
	}
	if pinnedCPU, err = pinToOneCPU(); err != nil {
		fmt.Fprintf(os.Stderr, "fixload: WARNING: not pinned to one CPU (%v): expect every timing to spread several times wider\n", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := realMain(ctx, *workload, *seed, *seconds, *trace == 1, *aa)
	stop()
	os.Exit(code)
}

func realMain(ctx context.Context, workload string, seed int64, seconds int, trace bool, aa int) int {
	todo := specs
	if workload != "" {
		sp, ok := specByName(workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "fixload: unknown workload %q\n", workload)
			return 2
		}
		todo = []spec{sp}
	}
	e, err := newEnv(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fixload:", err)
		return 1
	}
	defer e.cleanup()
	if aa > 0 {
		return runAA(ctx, e, todo, seed, seconds, aa)
	}
	if workload != "" {
		// The driver stops a run after 180 s without saying where it was;
		// a run that gets stuck says so itself and fails first. Its
		// children are killed and waited for first.
		stuck := time.AfterFunc(runDeadline, func() {
			fmt.Fprintf(os.Stderr, "fixload: %s still running after %v; giving up. Goroutines:\n", workload, runDeadline)
			_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
			killRunning()
			e.cleanup()
			os.Exit(3)
		})
		defer stuck.Stop()
	}
	code := 0
	var all []*result
	for _, sp := range todo {
		var res *result
		if trace {
			res, err = runTraced(ctx, e, sp, seed, seconds)
		} else {
			res, err = runE2E(ctx, e, sp, seed, seconds)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "fixload:", err)
			return 1
		}
		all = append(all, res)
		if !printResult(res) {
			code = 1
		}
	}
	if err := writeReport(e, all, seed, seconds, trace); err != nil {
		fmt.Fprintln(os.Stderr, "fixload:", err)
		return 1
	}
	return code
}

// printResult prints one `workload/metric value unit` line per metric
// and, last, the one-line JSON object the benchmark contract asks for.
// It reports whether every operation succeeded.
func printResult(res *result) bool {
	show := func(metrics map[string]metric, note string) {
		names := make([]string, 0, len(metrics))
		for n := range metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := metrics[n]
			line := fmt.Sprintf("%s/%s %.6g %s", res.Workload, n, m.Value, m.Unit)
			if o, ok := res.Observed[n]; ok {
				line += fmt.Sprintf("  (rounds observed %.6g, IQR %.1f%%)", o, res.Spread[n])
			} else if s, ok := res.Spread[n]; ok {
				line += fmt.Sprintf("  (IQR %.1f%%)", s)
			}
			fmt.Println(line + note)
		}
	}
	show(res.Metrics, "")
	show(res.Ungated, "  [not gated]")
	fmt.Printf("%s/failed_op_share %g ratio  (%d of %d)\n", res.Workload, float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	correct := res.Failed == 0
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fixload:", err)
		return false
	}
	fmt.Println(string(out))
	return correct
}

// header records the topology a result was taken on.
type header struct {
	NumCPU     int                `json:"num_cpu"` // after pinning: 1
	PinnedCPU  int                `json:"pinned_cpu"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GoVersion  string             `json:"go_version"`
	Commit     string             `json:"commit"`
	Seed       int64              `json:"seed"`
	Seconds    int                `json:"seconds"`
	Clients    int                `json:"clients"`
	Scales     map[string]float64 `json:"scales"`
}

func newHeader(e *env, seed int64, seconds int) header {
	commit := "unknown"
	if out, err := exec.Command("git", "-C", e.root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return header{
		NumCPU: runtime.NumCPU(), PinnedCPU: pinnedCPU, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit, Seed: seed, Seconds: seconds, Clients: 1,
		Scales: map[string]float64{"xmark_read": xmarkReadScale, "bib": bibScale, "xmark_build_seed": xmarkBuildSeedScale},
	}
}

// writeReport stores the run as JSON with its header under bench/out/.
func writeReport(e *env, all []*result, seed int64, seconds int, trace bool) error {
	dir := filepath.Join(e.root, "bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := "result.json"
	if trace {
		name = "layers.json"
	}
	b, err := json.MarshalIndent(struct {
		Header  header    `json:"header"`
		Results []*result `json:"results"`
	}{newHeader(e, seed, seconds), all}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

// Command fixvet is the project's static-analysis suite: a stdlib-only
// (go/ast + go/parser + go/types, no x/tools) multi-analyzer driver that
// machine-checks the invariants the PRs introduced by convention.
//
// The flat passes:
//
//   - errcmp: sentinel errors matched with errors.Is, wrapped with %w,
//     Close() errors never silently dropped
//   - lockcheck: `// guarded by mu` fields locked in exported methods,
//     no self-deadlock, leaf mutexes never held across storage/os I/O
//   - ctxcheck: ctx first and named ctx, context.Background() only in
//     Foo → FooCtx delegating wrappers, Foo/FooCtx pairs stay thin
//   - obscheck: nil-guarded *obs.Trace writes, centralized unique
//     expvar registration, process-wide counters only in internal/obs
//   - depcheck: stdlib-or-module-internal imports only, one-way layering
//   - doccheck: package and exported docs (covers tools/ too)
//
// The flow-aware passes, built on the tools/fixvet/cfg control-flow
// layer:
//
//   - lockorder: the declared lock hierarchy (`// lockcheck: order N`)
//     holds on every path, through a lightweight module call graph
//   - paircheck: acquire/release pairing (mutexes, Generation pins,
//     View.Close, context cancel funcs, phase timers) proven on every
//     CFG path, including early returns and explicit panics
//   - atomiccheck: atomically-accessed fields are never touched
//     non-atomically; `// immutable after publish` fields are written
//     only in builders
//
// Usage (normally via `make lint`):
//
//	go run ./tools/fixvet [-root dir] [-run a,b] [-list]
//
// Exits 1 with one finding per line when anything is flagged, and 2
// when the tree does not load or type-check. Under GitHub Actions
// (GITHUB_ACTIONS=true) the findings are workflow annotations on stdout
// instead. A deliberate exception is an annotation at the site that
// owns the obligation (`paircheck: ignore(X)`), never a suppression
// list.
//
// See docs/STATIC_ANALYSIS.md for each rule's motivating bug and the
// annotation vocabulary.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

func main() {
	var (
		root    = flag.String("root", ".", "module root to analyze")
		runList = flag.String("run", "", "comma-separated analyzer names (default: all)")
		list    = flag.Bool("list", false, "list analyzers and exit")
	)
	flag.Parse()

	if *list {
		listAnalyzers(os.Stdout)
		return
	}
	selected, err := selectAnalyzers(*runList)
	if err != nil {
		die(err)
	}
	l, err := NewLoader(*root)
	if err != nil {
		die(err)
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		die(err)
	}

	findings := runAnalyzers(l, pkgs, selected)
	github := os.Getenv("GITHUB_ACTIONS") == "true"
	for _, f := range findings {
		if github {
			// https://docs.github.com/actions/reference/workflow-commands :
			// property values need %, CR and LF percent-escaped.
			fmt.Printf("::error file=%s,line=%d,col=%d,title=fixvet %s::%s\n",
				f.File, f.Line, f.Col, f.Analyzer, githubEscape(f.Message))
		} else {
			fmt.Fprintln(os.Stderr, f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "fixvet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
	fmt.Printf("fixvet: %d packages clean (%d analyzers)\n", len(pkgs), len(selected))
}

// die reports an error that stops the run before any analysis.
func die(err error) {
	fmt.Fprintln(os.Stderr, "fixvet:", err)
	os.Exit(2)
}

// listAnalyzers writes the -list table: one line per registered pass
// with its doc string.
func listAnalyzers(w io.Writer) {
	for _, a := range analyzers {
		fmt.Fprintf(w, "%-12s %s\n", a.Name, a.Doc)
	}
}

// githubEscape applies the workflow-command data escaping rules.
func githubEscape(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

// selectAnalyzers resolves the -run flag against the registered suite.
func selectAnalyzers(runList string) ([]*Analyzer, error) {
	if runList == "" {
		return analyzers, nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range analyzers {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(runList, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (use -list)", name)
		}
		out = append(out, a)
	}
	return out, nil
}

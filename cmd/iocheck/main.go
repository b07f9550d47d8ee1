// Command iocheck runs the repository's invariant analyzers (see
// internal/analysis) over the module and exits nonzero on any unsuppressed
// diagnostic. It is wired into `make lint` and `make check`.
//
// Usage:
//
//	iocheck [-v] [-json] [-rules simtime,maprange,...]
//	        [-baseline lint-baseline.json] [-write-baseline FILE] [pattern]
//
// The pattern is a directory tree suffixed with /... (default "./..."):
// the module containing it is loaded and type-checked in full, and
// analyzers run on every package rooted under the pattern directory. The
// checker is built only on the standard library's go/ast, go/parser,
// go/token, and go/types, so it needs no network and no third-party
// modules.
//
// Diagnostics print as file:line:col: [rule] message, sorted by position
// so two runs over the same tree produce byte-identical output. -json
// prints every diagnostic (suppressed included) as a sorted JSON array
// instead. Audited exceptions are suppressed with `//iocheck:allow <rule>
// <reason>` on the flagged line or the line above; -v prints suppressed
// findings too.
//
// -baseline compares the tree against a checked-in per-rule ratchet file
// with two maps: "findings" (unsuppressed diagnostics each rule is
// grandfathered) and "suppressed" (audited //iocheck:allow exceptions
// each rule is permitted). Growth of either count fails the run, and so
// does shrinkage: the baseline is stale and must be ratcheted down with
// -write-baseline (`make lint-baseline`), so neither count moves
// unnoticed and a retired audit leaves no free allow behind. A baseline
// without a "findings" key reads as all-zero, which keeps old
// suppression-only files working. -write-baseline regenerates the file
// from the current tree.
//
// Exit codes: 0 clean, 1 findings (unsuppressed diagnostics beyond the
// baseline, a stale baseline, or ratchet growth), 2 usage or load
// errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("iocheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	verbose := fs.Bool("v", false, "also print suppressed diagnostics")
	rules := fs.String("rules", "", "comma-separated analyzer names to run (default: all)")
	jsonOut := fs.Bool("json", false, "print all diagnostics (suppressed included) as a JSON array")
	baseline := fs.String("baseline", "", "per-rule ratchet file; growth fails, shrinkage demands regeneration")
	writeBaseline := fs.String("write-baseline", "", "write current per-rule finding and suppression counts to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	pattern := "./..."
	switch fs.NArg() {
	case 0:
	case 1:
		pattern = fs.Arg(0)
	default:
		fmt.Fprintln(stderr, "iocheck: at most one package pattern is supported")
		return 2
	}
	dir, ok := strings.CutSuffix(pattern, "/...")
	if !ok {
		fmt.Fprintf(stderr, "iocheck: pattern %q must end in /...\n", pattern)
		return 2
	}
	if dir == "" {
		dir = "."
	}
	if fi, err := os.Stat(dir); err != nil {
		fmt.Fprintf(stderr, "iocheck: %v\n", err)
		return 2
	} else if !fi.IsDir() {
		fmt.Fprintf(stderr, "iocheck: pattern root %q is not a directory\n", dir)
		return 2
	}
	analyzers, err := selectAnalyzers(*rules)
	if err != nil {
		fmt.Fprintf(stderr, "iocheck: %v\n", err)
		return 2
	}
	root, err := analysis.ModuleRoot(dir)
	if err != nil {
		fmt.Fprintf(stderr, "iocheck: %v\n", err)
		return 2
	}
	pkgs, err := analysis.LoadModule(root)
	if err != nil {
		fmt.Fprintf(stderr, "iocheck: %v\n", err)
		return 2
	}
	pkgs = underDir(pkgs, dir)
	diags := analysis.Run(pkgs, analyzers)
	if *writeBaseline != "" {
		if err := writeBaselineFile(*writeBaseline, diags); err != nil {
			fmt.Fprintf(stderr, "iocheck: %v\n", err)
			return 2
		}
	}
	failures := 0
	if *jsonOut {
		if err := printJSON(stdout, diags); err != nil {
			fmt.Fprintf(stderr, "iocheck: %v\n", err)
			return 2
		}
		for _, d := range diags {
			if !d.Suppressed {
				failures++
			}
		}
	} else {
		for _, d := range diags {
			switch {
			case !d.Suppressed:
				failures++
				fmt.Fprintln(stdout, d.String())
			case *verbose:
				fmt.Fprintf(stdout, "%s (suppressed: %s)\n", d.String(), d.SuppressReason)
			}
		}
	}
	if *baseline != "" {
		grown, stale, err := checkBaseline(*baseline, diags)
		if err != nil {
			fmt.Fprintf(stderr, "iocheck: %v\n", err)
			return 2
		}
		if len(grown) > 0 {
			for _, g := range grown {
				fmt.Fprintln(stderr, "iocheck: "+g)
			}
			fmt.Fprintln(stderr, "iocheck: findings grew past the baseline; fix them, or audit with //iocheck:allow and regenerate with -write-baseline")
			return 1
		}
		if len(stale) > 0 {
			for _, s := range stale {
				fmt.Fprintln(stderr, "iocheck: "+s)
			}
			fmt.Fprintln(stderr, "iocheck: stale baseline: finding or suppression counts shrank; ratchet down with `make lint-baseline`")
			return 1
		}
		if failures > 0 {
			fmt.Fprintf(stderr, "iocheck: %d unsuppressed finding(s) grandfathered by the baseline\n", failures)
		}
		return 0
	}
	if failures > 0 {
		fmt.Fprintf(stderr, "iocheck: %d unsuppressed finding(s)\n", failures)
		return 1
	}
	return 0
}

// baselineFile is the checked-in per-rule ratchet: how many unsuppressed
// findings each rule is grandfathered (a debt level that may only move
// by regenerating the file) and how many audited //iocheck:allow
// exceptions each rule is permitted. A file without a "findings" key —
// the old suppression-only format — reads as all-zero findings.
type baselineFile struct {
	Findings   map[string]int `json:"findings"`
	Suppressed map[string]int `json:"suppressed"`
}

func baselineCounts(diags []analysis.Diagnostic) baselineFile {
	b := baselineFile{Findings: make(map[string]int), Suppressed: make(map[string]int)}
	for _, d := range diags {
		if d.Suppressed {
			b.Suppressed[d.Rule]++
		} else {
			b.Findings[d.Rule]++
		}
	}
	return b
}

func writeBaselineFile(path string, diags []analysis.Diagnostic) error {
	data, err := json.MarshalIndent(baselineCounts(diags), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// checkBaseline diffs the tree's per-rule counts against the ratchet
// file. grown collects growth and stale collects shrinkage of either
// count; both fail the run, so an improvement cannot silently regress
// and a retired audit's slot cannot be reused by a new allow.
func checkBaseline(path string, diags []analysis.Diagnostic) (grown, stale []string, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var base baselineFile
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, nil, fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	counts := baselineCounts(diags)
	for _, rule := range ruleUnion(counts.Findings, base.Findings) {
		n, allowed := counts.Findings[rule], base.Findings[rule]
		switch {
		case n > allowed:
			grown = append(grown, fmt.Sprintf("rule %s has %d unsuppressed finding(s), baseline grandfathers %d", rule, n, allowed))
		case n < allowed:
			stale = append(stale, fmt.Sprintf("rule %s has %d unsuppressed finding(s), baseline still records %d", rule, n, allowed))
		}
	}
	for _, rule := range ruleUnion(counts.Suppressed, base.Suppressed) {
		n, allowed := counts.Suppressed[rule], base.Suppressed[rule]
		switch {
		case n > allowed:
			grown = append(grown, fmt.Sprintf("rule %s has %d suppression(s), baseline allows %d", rule, n, allowed))
		case n < allowed:
			stale = append(stale, fmt.Sprintf("rule %s has %d suppression(s), baseline still allows %d", rule, n, allowed))
		}
	}
	sort.Strings(grown)
	sort.Strings(stale)
	return grown, stale, nil
}

// ruleUnion returns the sorted union of both maps' keys.
func ruleUnion(a, b map[string]int) []string {
	seen := make(map[string]bool, len(a)+len(b))
	var out []string
	for rule := range a {
		if !seen[rule] {
			seen[rule] = true
			out = append(out, rule)
		}
	}
	for rule := range b {
		if !seen[rule] {
			seen[rule] = true
			out = append(out, rule)
		}
	}
	sort.Strings(out)
	return out
}

// jsonDiag is the -json wire form of one diagnostic. Fields marshal in
// declaration order and the input is already position-sorted, so the
// output is byte-stable across runs.
type jsonDiag struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Rule       string `json:"rule"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed,omitempty"`
	Reason     string `json:"reason,omitempty"`
}

func printJSON(w io.Writer, diags []analysis.Diagnostic) error {
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiag{
			File:       d.Pos.Filename,
			Line:       d.Pos.Line,
			Col:        d.Pos.Column,
			Rule:       d.Rule,
			Message:    d.Message,
			Suppressed: d.Suppressed,
			Reason:     d.SuppressReason,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// selectAnalyzers resolves the -rules filter against the full suite.
func selectAnalyzers(filter string) ([]*analysis.Analyzer, error) {
	all := analysis.Analyzers()
	if filter == "" {
		return all, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(filter, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// underDir keeps the packages rooted under dir (the pattern's subtree).
func underDir(pkgs []*analysis.Package, dir string) []*analysis.Package {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return pkgs
	}
	var out []*analysis.Package
	for _, pkg := range pkgs {
		if pkg.Dir == abs || strings.HasPrefix(pkg.Dir, abs+string(filepath.Separator)) {
			out = append(out, pkg)
		}
	}
	return out
}

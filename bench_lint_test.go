package iocontainer

import (
	"testing"
	"time"

	"repro/internal/analysis"
)

// BenchmarkIocheckModule is the wall-time budget for `iocheck ./...`: one
// iteration loads and type-checks the whole module, builds the CFG and
// CHA call-graph layer, and runs all thirteen analyzers. It rides in `make
// bench` so a regression in the whole-program analysis (an unbounded
// summary fixpoint, a quadratic CFG walk) shows up in BENCH_baseline.json
// next to the scenario benchmarks. The load-ms and rules-ms columns split
// each iteration between loading the module and running the rules, so a
// slowdown names its half.
func BenchmarkIocheckModule(b *testing.B) {
	root, err := analysis.ModuleRoot(".")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var load, rules time.Duration
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		pkgs, err := analysis.LoadModule(root)
		if err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		diags := analysis.Run(pkgs, analysis.Analyzers())
		load += t1.Sub(t0)
		rules += time.Since(t1)
		if n := len(analysis.Unsuppressed(diags)); n != 0 {
			b.Fatalf("module has %d unsuppressed findings", n)
		}
	}
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 / float64(b.N) }
	b.ReportMetric(ms(load), "load-ms")
	b.ReportMetric(ms(rules), "rules-ms")
}

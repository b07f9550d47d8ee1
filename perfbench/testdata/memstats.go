// This file is added to cmd/iocheck's main package by a build overlay
// when the benchmark builds iocheck for its lint workload; it is not
// part of the module's own build.

package main

import (
	"fmt"
	"os"
	"runtime"
)

// init runs the command in place of main when PERFBENCH_MEMSTATS names a
// report file, then writes the process's allocation totals to it: bytes
// allocated, heap allocations, GC cycles and total GC pause in
// nanoseconds. Package-level initialisation has finished by then, and
// this file sorts after the command's own, so its init runs last.
func init() {
	path := os.Getenv("PERFBENCH_MEMSTATS")
	if path == "" {
		return
	}
	code := run(os.Args[1:], os.Stdout, os.Stderr)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	report := fmt.Sprintf("%d %d %d %d\n", ms.TotalAlloc, ms.Mallocs, ms.NumGC, ms.PauseTotalNs)
	if err := os.WriteFile(path, []byte(report), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "iocheck: allocation report: %v\n", err)
		code = 2
	}
	os.Exit(code)
}

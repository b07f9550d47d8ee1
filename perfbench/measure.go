package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sample is the host cost of one op.
type sample struct {
	wall       float64 // seconds
	cpu        float64 // user+sys seconds
	allocBytes float64
	allocs     float64
	gcCycles   float64
	gcPause    float64 // seconds
	// leaked counts goroutines the op left running (in-process ops only).
	leaked float64
	// rssMB is the peak RSS during the op: of the benchmark process, or of
	// the child process the op ran.
	rssMB float64
}

// opOut is what one op hands back to the harness.
type opOut struct {
	// digest hashes the op's simulated output; every op of a run at one
	// seed must produce the same one.
	digest string
	// layers holds the per-layer metrics of a traced op (nil untraced).
	layers map[string]float64
	// counts holds the per-layer counts that must repeat exactly across
	// traced ops at one seed (the determinism guard).
	counts map[string]float64
	// child is the cost of an op that ran in a child process; it
	// replaces everything but the wall time the harness measured.
	child *sample
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// resetPeakRSS restarts the kernel's peak-RSS watermark of this process
// (Linux 4.0 and later), so the next peakRSSMB covers one op only.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads this process's peak resident set since the last reset.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// timed runs op once and measures it. A collection first gives every op
// the same starting heap, so one op's garbage is not billed to the next.
func timed(op func() (opOut, error)) (sample, opOut, error) {
	runtime.GC()
	if err := resetPeakRSS(); err != nil {
		return sample{}, opOut{}, fmt.Errorf("peak RSS: %w", err)
	}
	g0 := runtime.NumGoroutine()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	t0 := time.Now()
	out, err := op()
	wall := time.Since(t0).Seconds()
	c1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	s := sample{
		wall:       wall,
		cpu:        c1 - c0,
		allocBytes: float64(m1.TotalAlloc - m0.TotalAlloc),
		allocs:     float64(m1.Mallocs - m0.Mallocs),
		gcCycles:   float64(m1.NumGC - m0.NumGC),
		gcPause:    float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e9,
		leaked:     float64(runtime.NumGoroutine() - g0),
	}
	rss, rssErr := peakRSSMB()
	if err == nil && rssErr != nil {
		err = fmt.Errorf("peak RSS: %w", rssErr)
	}
	s.rssMB = rss
	if c := out.child; c != nil {
		c.wall = s.wall
		s = *c
	}
	return s, out, err
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest order statistic with at least ten samples
// above it, and the percentile it stands at; ok is false when there are
// too few samples for any tail above the median.
func tail(xs []float64) (v float64, pct int, ok bool) {
	n := len(xs)
	if n < 21 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := n - 11
	return s[i], int(math.Floor(100 * float64(i+1) / float64(n))), true
}

// field extracts one column of samples.
func field(ss []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

// digestMismatch is the error an op returns when its output hash differs
// from the recorded or first-seen one.
func digestMismatch(workload, got, want string) error {
	return fmt.Errorf("%s: output digest %.16s… differs from %.16s…", workload, got, want)
}

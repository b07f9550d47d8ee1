// Command perfbench is the repository's host-time benchmark. It runs one
// workload through the simulator's and iocheck's public entry points,
// checks every op's simulated output against a digest, and prints the
// end-to-end metrics (untraced) or the per-layer metrics (-trace 1) as
// the last line of its output, one JSON object. README.md says why each
// workload exists and which metric each layer should move.
//
// Usage (from the module root; run.sh builds the binary first):
//
//	perfbench -workload fanout [-seed 42] [-seconds 10] [-trace 0|1]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metric is one named benchmark output.
type metric struct {
	name, unit string
}

// endToEnd are the metrics a user of the simulator or of iocheck sees,
// reported untraced. Failed ops are the result line's "failed" count;
// error_rate (failed ÷ attempted) is printed with the human-readable
// summary, not as a metric, because it is 0 on a correct run.
var endToEnd = []metric{
	{"op_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"alloc_mb", "MB"},
	{"allocs", "count"},
	{"peak_rss_mb", "MB"},
}

// setupRepeats is how many times an untraced run sets up; setup_s is the
// median.
const setupRepeats = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", defaultSeed, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer measurement")
	root := fs.String("root", ".", "module root")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want -workload one of %v, -seconds > 0, -trace 0|1\n", workloadNames())
		return 2
	}
	work := filepath.Join(*root, ".bench_build")
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	e := &env{root: *root, work: work, seed: *seed}
	opts := options{d: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, setups: setupRepeats, minOps: 3}
	if opts.trace {
		opts.setups = 1
		opts.minOps = 4 // at least two traced ops, so their counts can be compared
	}
	r, err := bench(w, e, opts)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, msg := range r.errs {
		fmt.Fprintf(stderr, "perfbench: %s: failed op: %s\n", w.name, msg)
	}
	r.print(stdout, w, e.seed)
	line, err := json.Marshal(r.result())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// runReport is everything one benchmark run measured.
type runReport struct {
	trace    bool
	samples  []sample // untraced ops
	traced   []sample // traced ops
	setup    []float64
	failed   int
	errs     []string // the first few failed ops' errors
	digest   string
	recorded bool // digest was checked against recordedDigests
	layers   map[string]float64
}

// maxErrs bounds how many failed ops are described on stderr.
const maxErrs = 5

// options says how long and how a run measures.
type options struct {
	d      time.Duration // measured time
	trace  bool
	setups int // set-ups to run; setup_s is their median
	minOps int // ops to run even when d has passed
}

// bench sets the workload up, then runs ops one at a time until d has
// passed (closed loop, one client). A traced run alternates untraced and
// traced ops so both see the same process state.
func bench(w workload, e *env, o options) (*runReport, error) {
	r := &runReport{trace: o.trace}
	var inst *instance
	for i := 0; i < o.setups; i++ {
		t0 := time.Now()
		in, err := w.setup(e)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		// The warm-up op's outcome is not checked here: a failing op
		// fails every timed op after it too, and is counted there.
		_, _ = in.op()
		r.setup = append(r.setup, time.Since(t0).Seconds())
		inst = in
	}
	want, hasWant := recordedDigests[w.name]
	r.recorded = hasWant && e.seed == defaultSeed
	var firstCounts map[string]float64
	layerSamples := map[string][]float64{}
	deadline := time.Now().Add(o.d)
	for n := 0; n < o.minOps || time.Now().Before(deadline); n++ {
		traced := o.trace && n%2 == 1
		op := inst.op
		if traced {
			op = inst.traced
		}
		s, out, err := timed(op)
		if err == nil && out.digest != "" {
			switch {
			case r.recorded && out.digest != want:
				err = digestMismatch(w.name, out.digest, want)
			case r.digest == "":
				r.digest = out.digest
			case out.digest != r.digest:
				err = digestMismatch(w.name, out.digest, r.digest)
			}
		}
		if err == nil && traced {
			if firstCounts == nil {
				firstCounts = out.counts
			} else {
				err = sameCounts(firstCounts, out.counts)
			}
		}
		if traced {
			r.traced = append(r.traced, s)
		} else {
			r.samples = append(r.samples, s)
		}
		if err != nil {
			r.failed++
			if len(r.errs) < maxErrs {
				r.errs = append(r.errs, err.Error())
			}
		}
		prefix := ""
		if !traced {
			prefix = untracedPrefix
		}
		for k, v := range out.layers {
			layerSamples[prefix+k] = append(layerSamples[prefix+k], v)
		}
	}
	if o.trace {
		r.layers = layerMetrics(r, layerSamples, firstCounts)
	}
	return r, nil
}

// sameCounts is the determinism guard: every count a traced op reports
// must repeat exactly at one seed.
func sameCounts(first, got map[string]float64) error {
	for k, v := range first {
		if got[k] != v {
			return fmt.Errorf("determinism: %s = %v, first traced op had %v", k, got[k], v)
		}
	}
	if len(got) != len(first) {
		return errors.New("determinism: traced ops reported different count sets")
	}
	return nil
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *runReport) attempted() int { return len(r.samples) + len(r.traced) }

func (r *runReport) result() result {
	res := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted(),
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	if r.trace {
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{r.layers[m.name], m.unit}
		}
		return res
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metricValue{r.endToEnd(m.name), m.unit}
	}
	return res
}

const mb = 1 << 20

// endToEnd returns the named end-to-end metric over the untraced ops.
func (r *runReport) endToEnd(name string) float64 {
	switch name {
	case "op_s":
		return median(field(r.samples, func(s sample) float64 { return s.wall }))
	case "cpu_s":
		return median(field(r.samples, func(s sample) float64 { return s.cpu }))
	case "setup_s":
		return median(r.setup)
	case "alloc_mb":
		return median(field(r.samples, func(s sample) float64 { return s.allocBytes })) / mb
	case "allocs":
		return median(field(r.samples, func(s sample) float64 { return s.allocs }))
	case "peak_rss_mb":
		return median(field(r.samples, func(s sample) float64 { return s.rssMB }))
	}
	panic("perfbench: unknown end-to-end metric " + name)
}

// print writes the human-readable summary: every end-to-end metric with
// its unit and sample count, error_rate, and the output digest.
func (r *runReport) print(w io.Writer, wl workload, seed int64) {
	fmt.Fprintf(w, "workload %s\n", wl.name)
	fmt.Fprintf(w, "seed %d, GOMAXPROCS %d, %d op(s) attempted, %d failed\n",
		seed, runtime.GOMAXPROCS(0), r.attempted(), r.failed)
	if r.digest != "" {
		how := "recorded digest matched"
		if !r.recorded {
			how = "not recorded at this seed"
		}
		if r.failed > 0 {
			how = "see failed ops"
		}
		fmt.Fprintf(w, "digest %s (%s)\n", r.digest, how)
	}
	if r.trace {
		fmt.Fprintf(w, "traced: %d untraced and %d traced op(s); per-layer metrics, zeros omitted:\n", len(r.samples), len(r.traced))
		for _, m := range perLayer {
			if v := r.layers[m.name]; v != 0 {
				fmt.Fprintf(w, "  %-34s %18.6f %s\n", m.name, v, m.unit)
			}
		}
		return
	}
	n := len(r.samples)
	for _, m := range endToEnd {
		v := r.endToEnd(m.name)
		switch m.name {
		case "setup_s":
			fmt.Fprintf(w, "  %-12s %14.6f %-5s median of %d set-up(s)\n", m.name, v, m.unit, len(r.setup))
		default:
			fmt.Fprintf(w, "  %-12s %14.6f %-5s median of %d op(s)", m.name, v, m.unit, n)
			if m.name == "op_s" {
				if t, pct, ok := tail(field(r.samples, func(s sample) float64 { return s.wall })); ok {
					fmt.Fprintf(w, ", p%d %.6f", pct, t)
				}
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintf(w, "  %-12s %14.6f %-5s %d of %d op(s)\n", "error_rate", float64(r.failed)/float64(r.attempted()), "ratio", r.failed, r.attempted())
}

// Command iocontainersim runs one scenario file and prints its timeline:
// management actions, per-container outcomes, and the run summary. The
// file is the whole description of the run (sizes, steps, seed, policy,
// control plane, faults, subscribers); the flags only choose what to
// print and export. Any tracing flag turns on causal tracing, which can
// export a Chrome trace_event JSON (chrome://tracing / Perfetto-loadable)
// and a plain-text timeline, install the flight recorder, and print a
// critical-path report naming the container that dominates end-to-end
// latency.
//
// Usage:
//
//	iocontainersim -config scenarios/fig7.json [-chart]
//	               [-chrome out.json] [-text out.txt] [-flight flight.txt]
//	               [-critical] [-ring 65536] [-kernel]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/datatap"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// outputs is what the flags ask for beyond the run summary.
type outputs struct {
	chart    bool
	chrome   string
	text     string
	flight   string
	critical bool
}

func main() {
	configPath := flag.String("config", "", "JSON scenario file (required)")
	var out outputs
	flag.BoolVar(&out.chart, "chart", false, "render ASCII charts of the key series")
	flag.StringVar(&out.chrome, "chrome", "", "write a Chrome trace_event JSON of the run here (validated after writing)")
	flag.StringVar(&out.text, "text", "", "write a plain-text trace timeline here")
	flag.StringVar(&out.flight, "flight", "", "dump the flight recorder here on SLA violation, overflow, or crash")
	flag.BoolVar(&out.critical, "critical", false, "print the critical-path report after the summary")
	ring := flag.Int("ring", 0, "flight-recorder ring capacity in records (0 = default)")
	kernel := flag.Bool("kernel", false, "also record raw simulator-kernel events")
	flag.Parse()

	if *configPath == "" {
		fmt.Fprintln(os.Stderr, "iocontainersim: -config is required")
		flag.Usage()
		os.Exit(2)
	}
	cfg, err := scenario.LoadFile(*configPath)
	if err != nil {
		fail(err)
	}
	if out.chrome != "" || out.text != "" || out.flight != "" || out.critical || *ring > 0 || *kernel {
		cfg.Trace = &trace.Config{RingCap: *ring, Kernel: *kernel}
	}
	run(cfg, out)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "iocontainersim:", err)
	os.Exit(1)
}

// run builds and runs the scenario, writes the requested trace exports,
// then prints the report and, with -critical, the critical path.
func run(cfg core.Config, out outputs) {
	rt, err := core.Build(cfg)
	if err != nil {
		fail(err)
	}
	rec := rt.Tracer()
	if out.flight != "" {
		rec.OnTrigger(func(reason string) {
			if err := dumpFlight(out.flight, reason, rec.Records()); err != nil {
				fmt.Fprintln(os.Stderr, "iocontainersim: flight dump:", err)
				return
			}
			fmt.Fprintf(os.Stderr, "iocontainersim: flight recorder dumped to %s (trigger: %s)\n",
				out.flight, reason)
		})
	}
	res, err := rt.Run()
	if err != nil {
		fail(err)
	}
	recs := rec.Records()
	if dropped := rec.Dropped(); dropped > 0 {
		fmt.Fprintf(os.Stderr, "iocontainersim: ring evicted %d records (oldest first); raise -ring for a full trace\n", dropped)
	}
	if out.chrome != "" {
		if err := exportChrome(out.chrome, recs); err != nil {
			fail(err)
		}
	}
	if out.text != "" {
		if err := writeFile(out.text, func(w io.Writer) error { return trace.WriteText(w, recs) }); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "iocontainersim: text timeline written to %s\n", out.text)
	}
	report(rt, res, out)
	if out.critical {
		fmt.Println()
		if err := trace.AnalyzeCriticalPath(recs).WriteReport(os.Stdout); err != nil {
			fail(err)
		}
	}
}

// report prints the run summary: the management actions, each container's
// outcome, the run totals, and the optional charts.
func report(rt *core.Runtime, res *core.Result, out outputs) {
	eff := rt.Config()

	fmt.Printf("scenario: %d simulation + %d staging nodes, %d steps every %s (scale: %d atoms, %.1f MB/step)\n",
		eff.SimNodes, eff.StagingNodes, eff.Steps, eff.OutputPeriod, eff.Scale.AtomCount, eff.Scale.MB())
	fmt.Println()

	fmt.Println("management actions:")
	if len(res.Actions) == 0 {
		fmt.Println("  (none)")
	}
	for _, a := range res.Actions {
		fmt.Printf("  %10s  %-10s %-8s n=%-3d %s\n", a.T, a.Kind, a.Target, a.N, a.Detail)
	}
	fmt.Println()

	fmt.Println("per-container outcome:")
	names := make([]string, 0, len(eff.Specs)+1)
	for _, spec := range eff.Specs {
		names = append(names, spec.Name)
	}
	if eff.CheckpointEvery > 0 {
		names = append(names, "checkpoint")
	}
	for _, name := range names {
		c := rt.Container(name)
		if c == nil {
			continue
		}
		lat := res.Recorder.Series("latency." + name)
		state := res.States[name]
		fmt.Printf("  %-7s %-8s %2d nodes  %3d steps processed", name, state, res.FinalSizes[name], c.StepsProcessed())
		if lat.Len() > 0 {
			fmt.Printf("  latency last/mean %.1fs/%.1fs", lat.Last().V, lat.Mean())
		}
		if prov := res.Provenance[name]; prov != "" {
			fmt.Printf("  provenance=%q", prov)
		}
		fmt.Println()
	}
	fmt.Println()

	e2e := res.Recorder.Series("e2e")
	fmt.Printf("summary: emitted=%d exited=%d dropped=%d spare=%d writer-blocked=%s e2e-samples=%d\n",
		res.Emitted, res.Exits, res.Dropped, res.Spare, res.WriterBlocked, e2e.Len())
	if len(res.DownNodes) > 0 || res.FaultStats != (fault.Stats{}) {
		fmt.Printf("faults: crashed-nodes=%v crashes=%d ctl-dropped=%d sends-failed=%d suspects=%v\n",
			res.DownNodes, res.FaultStats.CrashesFired, res.FaultStats.CtlDropped,
			res.FaultStats.SendsFailed, res.Suspects)
	}
	if e2e.Len() > 0 {
		fmt.Printf("end-to-end latency: first=%.1fs last=%.1fs\n", e2e.Points[0].V, e2e.Last().V)
	}

	printShards(res)
	printDelivery(res)
	printSubscribers(res)

	if trig, ok := rt.Tracer().Triggered(); ok && out.flight != "" {
		fmt.Printf("flight recorder: triggered (%s), dump in %s\n", trig, out.flight)
	}

	if out.chart {
		for _, name := range names {
			s := res.Recorder.Series("latency." + name)
			if s.Len() < 2 {
				continue
			}
			fmt.Printf("\nper-step latency, %s:\n", name)
			fmt.Print(metrics.Chart(s, metrics.ChartOptions{
				YLabel: "latency (s)", Markers: res.Recorder.Markers}))
		}
		if e2e.Len() >= 2 {
			fmt.Println("\nend-to-end latency:")
			fmt.Print(metrics.Chart(e2e, metrics.ChartOptions{
				YLabel: "end-to-end latency (s)", Markers: res.Recorder.Markers}))
		}
	}
}

// printShards renders the per-shard control-plane table on sharded runs
// (legacy single-manager runs have no shard summaries and print nothing).
func printShards(res *core.Result) {
	if len(res.Shards) == 0 {
		return
	}
	fmt.Println("control-plane shards:")
	fmt.Println("  shard  containers  spare  epoch  stolen-in  stolen-out  suspects  actions")
	for _, s := range res.Shards {
		fmt.Printf("  %5d  %10d  %5d  %5d  %9d  %10d  %8d  %7d\n",
			s.Shard, s.Containers, s.Spare, s.Epoch, s.StolenIn, s.StolenOut, s.Suspects, s.Actions)
	}
	fmt.Println()
}

// printDelivery summarizes each at-least-once channel's step ledger and
// any knowingly-lost steps. Best-effort channels keep no ledger and are
// skipped; a fully best-effort run prints nothing here.
func printDelivery(res *core.Result) {
	printed := false
	for _, d := range res.Delivery {
		if d.Mode != datatap.DeliveryAtLeastOnce {
			continue
		}
		if !printed {
			fmt.Println("delivery (at-least-once channels):")
			printed = true
		}
		fmt.Printf("  %-8s written=%d acked=%d redelivered=%d spilled=%d drained=%d crash-lost=%d retained=%d unaccounted=%d\n",
			d.Channel, d.StepsWritten, d.StepsAcked, d.StepsRedelivered,
			d.StepsSpilled, d.StepsDrained, d.StepsCrashLost, d.Retained, d.Unaccounted())
	}
	if len(res.DeliveryLost) > 0 {
		fmt.Printf("delivery losses (%d):\n", len(res.DeliveryLost))
		for _, l := range res.DeliveryLost {
			fmt.Printf("  %-8s step=%d reason=%s\n", l.Container, l.Step, l.Reason)
		}
	}
}

// printSubscribers summarizes the streaming fan-out fleet on runs that
// attach one (nothing is printed otherwise): the hub-wide counters, the
// fleet's worst lag, and the conservation balance.
func printSubscribers(res *core.Result) {
	if len(res.Subscribers) == 0 {
		return
	}
	hs := res.SubHub
	var crashed int
	var maxLag, unaccounted int64
	for _, s := range res.Subscribers {
		if s.Crashed {
			crashed++
		}
		if s.MaxLag > maxLag {
			maxLag = s.MaxLag
		}
		unaccounted += s.Unaccounted()
	}
	fmt.Printf("subscribers (%d, %d crashed): published=%d delivered=%d dropped=%d spilled=%d spill-reads=%d resumes=%d replays=%d\n",
		len(res.Subscribers), crashed, hs.Published, hs.Delivered, hs.Dropped,
		hs.Spilled, hs.SpillReads, hs.Resumes, hs.Replays)
	fmt.Printf("  max-lag=%d unaccounted=%d writer-stalled=%s publish-stall=%s\n",
		maxLag, unaccounted, res.WriterStalled, hs.PublishStall)
}

// exportChrome writes the records as Chrome trace_event JSON, then reads
// the file back and validates it.
func exportChrome(path string, recs []trace.Record) error {
	if err := writeFile(path, func(w io.Writer) error { return trace.WriteChrome(w, recs) }); err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	n, err := trace.ValidateChrome(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("exported trace does not validate: %w", err)
	}
	fmt.Fprintf(os.Stderr, "iocontainersim: Chrome trace written to %s (%d events, validated)\n", path, n)
	return nil
}

// dumpFlight writes a flight-recorder snapshot: a header naming the trigger,
// then the plain-text timeline of everything still in the ring.
func dumpFlight(path, reason string, recs []trace.Record) error {
	return writeFile(path, func(w io.Writer) error {
		fmt.Fprintf(w, "# flight recorder dump  trigger=%s  records=%d\n", reason, len(recs))
		return trace.WriteText(w, recs)
	})
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

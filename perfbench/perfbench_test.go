package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// testEnv runs workloads over the enclosing module at the default seed,
// with built binaries and reports in a test directory.
func testEnv(t *testing.T) *env {
	t.Helper()
	return &env{root: "..", work: t.TempDir(), seed: defaultSeed}
}

// quick measures nothing beyond one set-up and the given op count.
func quick(minOps int, trace bool) options {
	return options{setups: 1, minOps: minOps, trace: trace}
}

// mustFailEveryOp runs w and requires every op to count as failed, with
// the error naming want.
func mustFailEveryOp(t *testing.T, w workload, e *env, want string) {
	t.Helper()
	r, err := bench(w, e, quick(2, false))
	if err != nil {
		t.Fatalf("bench: %v", err)
	}
	res := r.result()
	if res.Failed != res.Attempted || res.Attempted == 0 || res.Correct {
		t.Fatalf("failed %d of %d ops (correct=%t), want every op failed", res.Failed, res.Attempted, res.Correct)
	}
	if !strings.Contains(r.errs[0], want) {
		t.Fatalf("failed op error %q does not mention %q", r.errs[0], want)
	}
}

func TestCorruptedDigestFailsOp(t *testing.T) {
	w, _ := lookupWorkload("figures")
	saved := recordedDigests["figures"]
	recordedDigests["figures"] = strings.Repeat("0", len(saved))
	defer func() { recordedDigests["figures"] = saved }()
	mustFailEveryOp(t, w, testEnv(t), "output digest")
}

func TestSubscriberLedgerHoleFailsOp(t *testing.T) {
	hole := func(res *core.Result) error {
		res.Subscribers[len(res.Subscribers)/2].Delivered--
		return checkFanout(res)
	}
	w := workload{"fanout-hole", scenarioSetup("dashboards.json", hole)}
	mustFailEveryOp(t, w, testEnv(t), "unaccounted")
}

// TestSplitBrainFailsOp sweeps the legacy failover scenario, whose
// unfenced standby takes over while the primary still issues rounds; the
// oracles must report it.
func TestSplitBrainFailsOp(t *testing.T) {
	w := workload{"chaos-legacy", chaosSetup([]string{"chaos-legacy.json"})}
	mustFailEveryOp(t, w, testEnv(t), "violation")
}

func TestIocheckExitFailsOp(t *testing.T) {
	e := testEnv(t)
	// An empty ratchet allows no audited suppression, and the tree has
	// some, so iocheck exits 1.
	baseline := filepath.Join(e.work, "empty-baseline.json")
	if err := os.WriteFile(baseline, []byte(`{"findings": {}, "suppressed": {}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	w := workload{"lint-bad", lintSetup(baseline)}
	mustFailEveryOp(t, w, e, "iocheck exit 1")
}

// TestTracedMatchesUntraced runs the traced measurement: the tracer must
// not perturb the simulation (digests agree with the recorded one), the
// counts must repeat, and the hub counters must read 0 on control.
func TestTracedMatchesUntraced(t *testing.T) {
	w, _ := lookupWorkload("control")
	r, err := bench(w, testEnv(t), quick(4, true))
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("traced run failed ops: %v", r.errs)
	}
	if r.layers["sim.events"] == 0 || r.layers["core.rounds"] == 0 {
		t.Errorf("sim.events = %v, core.rounds = %v; want both non-zero", r.layers["sim.events"], r.layers["core.rounds"])
	}
	if v := r.layers["datatap.hub.published"]; v != 0 {
		t.Errorf("datatap.hub.published = %v on control, want 0", v)
	}
}

func TestSameCountsFlagsDrift(t *testing.T) {
	first := map[string]float64{"sim.events": 10, "core.rounds": 2}
	if err := sameCounts(first, map[string]float64{"sim.events": 10, "core.rounds": 2}); err != nil {
		t.Errorf("identical counts: %v", err)
	}
	if err := sameCounts(first, map[string]float64{"sim.events": 11, "core.rounds": 2}); err == nil {
		t.Error("sim.events drift was not reported")
	}
}

func TestClassify(t *testing.T) {
	for label, want := range map[string]string{
		"start sub-17":             "sub",
		"wake sub-reconnect-3":     "sub",
		"wake meta-manager":        "control",
		"wake shard-4-standby":     "control",
		"start global-manager":     "control",
		"wake helper-replica-2":    "replica",
		"wake bonds-mgr":           "localmgr",
		"wake csym-heartbeat":      "localmgr",
		"start helper-watch":       "localmgr",
		"wake evpath-bridge":       "evpath",
		"wake datatap.repair ch0":  "datatap",
		"wake lammps-producer":     "producer",
		"start txn-rank-3":         "txn",
		"queue item":               "anon",
		"callback":                 "anon",
		"wake driver":              "anon",
		"event timeout":            "anon",
		"resource grant":           "anon",
		"queue closed (getter)":    "anon",
		"wake standby-manager":     "control",
		"start shard-12-manager":   "control",
		"wake cna-replica-0":       "replica",
		"start datatap.repair csy": "datatap",
	} {
		if got := classify(label); got != want {
			t.Errorf("classify(%q) = %q, want %q", label, got, want)
		}
	}
}

// TestBenchmarkFileMatches keeps BENCHMARK.json, which declares the
// benchmark's workloads and metrics, in step with what this program
// prints.
func TestBenchmarkFileMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program has %s", got, want)
	}
	same := func(what string, file []struct{ Name, Unit string }, prog []metric) {
		if len(file) != len(prog) {
			t.Errorf("BENCHMARK.json has %d %s metrics, program prints %d", len(file), what, len(prog))
			return
		}
		for i, m := range prog {
			if file[i].Name != m.name || file[i].Unit != m.unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s (%s), program %s (%s)", what, i, file[i].Name, file[i].Unit, m.name, m.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

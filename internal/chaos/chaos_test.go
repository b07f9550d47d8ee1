package chaos

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/scenario"
)

func baseFile(t *testing.T) *scenario.File {
	t.Helper()
	f, err := scenario.ReadFile("../../scenarios/chaos-failover.json")
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func legacyFile(t *testing.T) *scenario.File {
	t.Helper()
	f, err := scenario.ReadFile("../../scenarios/chaos-legacy.json")
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestGenerateDeterministic(t *testing.T) {
	base := baseFile(t)
	gc := GenConfig{}
	a := Generate(7, base, gc)
	b := Generate(7, base, gc)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different schedules:\n%+v\n%+v", a, b)
	}
	c := Generate(8, base, gc)
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 8 produced identical schedules")
	}
	if FaultCount(a) == 0 {
		t.Fatal("seed 7 generated an empty schedule")
	}
}

// TestSearchByteDeterministic is the acceptance's determinism proof: the
// full search — schedules, runs, oracle verdicts — must serialize to the
// same bytes regardless of worker count or repetition.
func TestSearchByteDeterministic(t *testing.T) {
	base := baseFile(t)
	run := func(workers int) []byte {
		res := Search(SearchConfig{Base: base, Seeds: 8, Workers: workers})
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial := run(1)
	parallel := run(4)
	if string(serial) != string(parallel) {
		t.Fatalf("results differ across worker counts:\n%s\n%s", serial, parallel)
	}
	again := run(4)
	if string(parallel) != string(again) {
		t.Fatal("repeated parallel search differs from itself")
	}
}

func TestFencedSearchPassesAllOracles(t *testing.T) {
	base := baseFile(t)
	for _, r := range Search(SearchConfig{Base: base, Seeds: 16}) {
		if len(r.Violations) != 0 {
			t.Errorf("seed %d: %v (schedule %s)", r.Seed, r.Violations, Summarize(r.Faults))
		}
	}
}

// TestLegacySearchFindsSplitBrain pins the chaos harness's reason for
// existing: with fencing disabled, the randomized search must find
// schedules where two managers issue rounds in the same epoch.
func TestLegacySearchFindsSplitBrain(t *testing.T) {
	base := legacyFile(t)
	found := false
	for _, r := range Search(SearchConfig{Base: base, Seeds: 16}) {
		for _, v := range r.Violations {
			if v.Oracle == "single-writer" {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("16 legacy seeds found no single-writer violation")
	}
}

func TestShrinkToMinimalSchedule(t *testing.T) {
	base := legacyFile(t)
	// Seed 2 is a known failing legacy seed (the checked-in regression
	// came from it). Find its violation, then shrink.
	faults := Generate(2, base, GenConfig{})
	ri := RunSchedule(base, faults)
	vs := CheckOracles(ri, DefaultOracles())
	if len(vs) == 0 {
		t.Fatal("seed 2 no longer violates any oracle under legacy mode")
	}
	min := Shrink(base, faults, vs[0].Oracle, DefaultOracles())
	if got, orig := FaultCount(min), FaultCount(faults); got > orig {
		t.Fatalf("shrink grew the schedule: %d -> %d", orig, got)
	}
	// 1-minimality: removing any single remaining fault must clear the
	// violation.
	for i := 0; i < FaultCount(min); i++ {
		if Violates(base, removeFault(min, i), vs[0].Oracle, DefaultOracles()) {
			t.Fatalf("shrunk schedule is not 1-minimal: fault %d removable", i)
		}
	}
	if !Violates(base, min, vs[0].Oracle, DefaultOracles()) {
		t.Fatal("shrunk schedule no longer violates the oracle")
	}
}

func TestRegressionRoundTrips(t *testing.T) {
	base := legacyFile(t)
	faults := Generate(2, base, GenConfig{})
	meta := scenario.ChaosMeta{Seed: 2, ExpectViolation: "single-writer", Note: "test"}
	blob, err := Regression(base, faults, meta)
	if err != nil {
		t.Fatal(err)
	}
	f, err := scenario.Read(bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("emitted regression does not parse: %v", err)
	}
	if f.Chaos == nil || f.Chaos.Seed != 2 || f.Chaos.ExpectViolation != "single-writer" {
		t.Fatalf("chaos meta lost in round trip: %+v", f.Chaos)
	}
	if !reflect.DeepEqual(f.Faults, faults) {
		t.Fatalf("fault schedule lost in round trip:\n%+v\n%+v", f.Faults, faults)
	}
}

// TestSubConservationOracleCatchesSeededCursorSkip is the smoke test for
// the per-subscriber conservation oracle: the dashboards run is clean,
// and the same result with one sequence missing from one subscriber's
// ledger — what a cursor that skips a spill catch-up read without
// delivering it leaves behind — must fire the oracle. This proves the
// oracle audits the ledger rather than vacuously passing. The datatap
// tests prove a real cursor skip opens exactly such a hole.
func TestSubConservationOracleCatchesSeededCursorSkip(t *testing.T) {
	base, err := scenario.ReadFile("../../scenarios/dashboards.json")
	if err != nil {
		t.Fatal(err)
	}
	// Shrink the fleet so the smoke run stays fast; the Zipf tail still
	// lags far past the shared tail and exercises the spill catch-up
	// path.
	subs := *base.Subscribers
	subs.Count = 24
	base.Subscribers = &subs

	ri := RunSchedule(base, &scenario.Faults{})
	if vs := CheckOracles(ri, DefaultOracles()); len(vs) != 0 {
		t.Fatalf("clean dashboards run violated oracles: %v", vs)
	}

	ri.Res.Subscribers[len(ri.Res.Subscribers)/2].Delivered--
	vs := CheckOracles(ri, DefaultOracles())
	found := false
	for _, v := range vs {
		if v.Oracle == "sub-conservation" {
			found = true
		}
	}
	if !found {
		t.Fatalf("seeded ledger hole escaped the sub-conservation oracle; violations: %v", vs)
	}
}

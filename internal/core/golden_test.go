package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// controlPlaneDigest runs cfg with tracing on and hashes what the control
// plane decides and how it gets there: the Chrome trace export, the action
// log, every control-round send attempt and the crash victims.
func controlPlaneDigest(t *testing.T, cfg core.Config) string {
	t.Helper()
	if cfg.Trace == nil {
		cfg.Trace = &trace.Config{}
	}
	rt, err := core.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !hasFailover(res) {
		t.Fatalf("no failover in %v", res.Actions)
	}
	recs := rt.Tracer().Records()
	if len(recs) == 0 {
		t.Fatal("empty trace")
	}
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, recs); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&buf, "\nactions %+v\nrounds %+v\nvictims %+v\n",
		res.Actions, res.Rounds, res.CrashVictims)
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// hasFailover reports whether some standby took over during the run.
func hasFailover(res *core.Result) bool {
	for _, a := range res.Actions {
		if a.Kind == "failover" {
			return true
		}
	}
	return false
}

// TestControlPlaneGolden pins the control plane's observable output for
// the three failover histories: a legacy standby takeover after KillGMAt,
// a partitioned legacy primary that heals and is demoted, and a sharded
// standby promoted by the meta-manager. The build path that assembles
// either control plane must leave every digest unchanged; a deliberate
// behaviour change re-records them.
func TestControlPlaneGolden(t *testing.T) {
	cases := []struct {
		name string
		cfg  func(t *testing.T) core.Config
		want string
	}{
		{"legacy-killgm", func(t *testing.T) core.Config {
			cfg, err := scenario.LoadFile("../../scenarios/failover.json")
			if err != nil {
				t.Fatal(err)
			}
			return cfg
		}, "2bd20210e98a5e532a1940a5bb4cfd27003e522397805ce168092b984e3474f6"},
		{"legacy-partition", func(*testing.T) core.Config { return core.PartitionGMConfig(1) },
			"4630e38f4d6bfedbecaeedbbd3151e2d8d2751a68d251367cf2a49659f3141ef"},
		{"sharded-promote", core.MetaPromoteConfig,
			"9a503cc35b2b597d6623346c406c7d974edc5e620d569e59680d8ffe767bd1bc"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := controlPlaneDigest(t, tc.cfg(t)); got != tc.want {
				t.Fatalf("digest %s, want %s", got, tc.want)
			}
		})
	}
}

package main

import (
	"strings"
	"time"

	"repro/internal/sim"
)

// hostClasses are the modules the kernel tracer bills host time to, in
// the order sim.host_s.<class> metrics are listed.
var hostClasses = []string{"sub", "control", "replica", "localmgr", "evpath", "datatap", "producer", "txn", "anon"}

// kernelTracer is the benchmark's sim.Tracer. It counts events by label,
// samples the pending-event count, and bills the host time between two
// consecutive events to the module that owns the earlier one.
type kernelTracer struct {
	eng        *sim.Engine
	events     int64
	callbacks  int64
	pendingMax int
	host       map[string]time.Duration
	// class memoises label -> module: labels repeat (one per process),
	// and classifying each of ~250k events by prefix would be the
	// tracer's own dominant cost.
	class map[string]string
	last  time.Time
	cur   string
}

func newKernelTracer(eng *sim.Engine) *kernelTracer {
	return &kernelTracer{eng: eng, host: map[string]time.Duration{}, class: map[string]string{}}
}

// Event implements sim.Tracer.
func (t *kernelTracer) Event(_ sim.Time, what string) {
	now := time.Now()
	if t.cur != "" {
		t.host[t.cur] += now.Sub(t.last)
	}
	t.events++
	if what == "callback" {
		t.callbacks++
	}
	if p := t.eng.Pending(); p > t.pendingMax {
		t.pendingMax = p
	}
	c, ok := t.class[what]
	if !ok {
		c = classify(what)
		t.class[what] = c
	}
	t.cur, t.last = c, now
}

// finish bills the last event's host time, up to the end of the run.
func (t *kernelTracer) finish() {
	if t.cur != "" {
		t.host[t.cur] += time.Since(t.last)
		t.cur = ""
	}
}

// classify maps an event label to the module whose process it resumes.
// Only process starts ("start <name>") and sleep wakes ("wake <name>")
// carry a process name; queue, event and resource wakes and plain
// callbacks do not, and count as anon.
func classify(what string) string {
	name, ok := strings.CutPrefix(what, "start ")
	if !ok {
		name, ok = strings.CutPrefix(what, "wake ")
	}
	if !ok {
		return "anon"
	}
	switch {
	case strings.HasPrefix(name, "sub-"):
		return "sub"
	case strings.HasPrefix(name, "meta-"), strings.HasPrefix(name, "shard-"),
		name == "global-manager", name == "standby-manager":
		return "control"
	case strings.Contains(name, "-replica-"):
		return "replica"
	case strings.HasSuffix(name, "-mgr"), strings.HasSuffix(name, "-heartbeat"), strings.HasSuffix(name, "-watch"):
		return "localmgr"
	case name == "evpath-bridge":
		return "evpath"
	case strings.HasPrefix(name, "datatap.repair"):
		return "datatap"
	case name == "lammps-producer":
		return "producer"
	case strings.HasPrefix(name, "txn-rank-"):
		return "txn"
	}
	return "anon"
}

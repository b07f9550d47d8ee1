// Package hotalloc is a golden-file fixture for the hotalloc analyzer:
// heat-propagated per-event allocation findings, cold-pruning, escape
// tags, and the audited-allow path.
package hotalloc

import "fmt"

type event struct {
	what string
	next *event
}

type engine struct {
	queue []*event
	free  *event
}

// push retains the event in the engine's queue (escape: retained).
func (e *engine) push(ev *event) { e.queue = append(e.queue, ev) }

// schedule is a hot root: the composite it builds is retained by push.
//
//iocheck:hot
func (e *engine) schedule(what string) {
	_ = e.String()             // String is cold by name: heat stops here
	e.push(&event{what: what}) // want "composite literal &event{…}) on hot path (*engine).schedule; value escapes (retained)"
}

// step is a hot root whose helper's findings carry the witness chain.
//
//iocheck:hot
func step(e *engine, n int) {
	deliver(e, n)
}

// deliver is hot via step; both allocation shapes on its one line are
// flagged, each witnessed "step → deliver".
func deliver(e *engine, n int) {
	e.push(&event{what: fmt.Sprintf("step %d", n)}) // want "on hot path step → deliver" "fmt.Sprintf"
}

// lookup is a non-allocating helper (hot via submit, nothing to flag).
func lookup(v int) (int, bool) {
	if v > 10 {
		return 0, false
	}
	return v, true
}

// submit exercises cold-pruning: allocations in the error branch, the
// failed comma-ok branch, and the panic block are once-per-failure and
// must not be flagged.
//
//iocheck:hot
func submit(e *engine, v int, err error) {
	if err != nil {
		e.push(&event{what: "error"}) // no finding: cold error branch
	}
	m, ok := lookup(v)
	if !ok {
		_ = fmt.Sprintf("missing %d", v) // no finding: failed comma-ok branch
	}
	if m < 0 {
		panic(fmt.Sprintf("bad %d", m)) // no finding: panic block
	}
}

// stamp fills a lazily created attribute map: the make in the nil branch
// is the steady state, not failure handling, and must be flagged.
//
//iocheck:hot
func stamp(attrs map[string]string, id string) map[string]string {
	if attrs == nil {
		attrs = make(map[string]string, 1) // want "make(map)"
	}
	attrs["span"] = id
	return attrs
}

// keys exercises non-constant make and append growth in a loop.
//
//iocheck:hot
func keys(m map[string]int) []string {
	out := make([]string, 0, len(m)) // want "make with non-constant size"
	for k := range m {
		out = append(out, k) // want "append growth in a loop"
	}
	return out
}

// wakeLabel allocates a fresh string per call.
//
//iocheck:hot
func wakeLabel(name string) string {
	return "wake " + name // want "string concatenation"
}

const prefix = "wake "

// constLabel's concatenation folds at compile time: no finding.
//
//iocheck:hot
func constLabel() string {
	return prefix + "all"
}

// scratch's buffer never escapes: the tag says poolable.
//
//iocheck:hot
func scratch(n int) int {
	buf := make([]byte, n) // want "make with non-constant size) on hot path scratch; value does not escape — poolable"
	return len(buf)
}

// retain is the audited suppression case: the allocation is retained by
// design and the allow keeps the finding visible but non-failing.
//
//iocheck:hot
func retain(e *engine, what string) {
	//iocheck:allow hotalloc fixture: entries are retained until acked by design, audited
	e.push(&event{what: what})
}

// allocEvent services a freelist miss; the cold marker takes it off the
// per-event budget.
//
//iocheck:cold
func (e *engine) allocEvent() *event {
	return &event{}
}

// String is cold by name shape (formatting).
func (e *engine) String() string {
	return fmt.Sprintf("engine(%d)", len(e.queue))
}

package datatap

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// Fan-out basics: every subscriber sees every descriptor published after
// it joined, and the ledger balances exactly.
func TestSubscribeFanOutConservation(t *testing.T) {
	eng, _, ch := newTestChannel(0, 0)
	h := ch.AttachHub(SubConfig{BufCap: 4, TailCap: 8})
	a := h.Subscribe("a", 2)
	b := h.Subscribe("b", 3)
	eng.Go("writer", func(p *sim.Proc) {
		w := ch.NewWriter(0)
		for i := int64(0); i < 10; i++ {
			w.Write(p, i, 1<<16, nil)
		}
		ch.Close()
	})
	drain := func(name string, s *Subscriber, want int64) {
		eng.Go(name, func(p *sim.Proc) {
			var got int64
			for {
				if _, ok := s.Fetch(p); !ok {
					break
				}
				got++
			}
			if got != want {
				t.Errorf("%s delivered %d, want %d", name, got, want)
			}
		})
	}
	drain("a", a, 10)
	drain("b", b, 10)
	eng.Run()
	for _, snap := range h.Snapshots() {
		if u := snap.Unaccounted(); u != 0 {
			t.Errorf("subscriber %s unaccounted %d: %+v", snap.ID, u, snap)
		}
	}
	if st := h.Stats(); st.PublishStall != 0 {
		t.Errorf("publish stalled a writer for %v", st.PublishStall)
	}
}

// Edge case: a subscriber joining after the channel has closed is legal
// and owed nothing — its first Fetch reports drained immediately instead
// of parking forever.
func TestLateJoinerOnClosedChannel(t *testing.T) {
	eng, _, ch := newTestChannel(0, 0)
	h := ch.AttachHub(SubConfig{})
	eng.Go("driver", func(p *sim.Proc) {
		w := ch.NewWriter(0)
		w.Write(p, 0, 1<<16, nil)
		ch.Close()
		late := h.Subscribe("late", 2)
		if m, ok := late.Fetch(p); ok || m != nil {
			t.Errorf("late joiner fetched %v after close, want drained", m)
		}
		snap := late.Snapshot()
		if snap.Published != 0 || snap.Unaccounted() != 0 {
			t.Errorf("late joiner owed something: %+v", snap)
		}
	})
	eng.Run()
}

// Edge case: a reconnecting subscriber whose durable cursor has fallen
// behind the tail's floor must be told to catch up through the spill
// store — Resume reports fromSpill and the deliveries that follow are
// spill reads, not tail restaging.
func TestReconnectCursorBehindTailFloorResumesFromSpill(t *testing.T) {
	eng, _, ch := newTestChannel(0, 0)
	h := ch.AttachHub(SubConfig{BufCap: 2, TailCap: 4})
	sub := h.Subscribe("dash", 2)
	eng.Go("driver", func(p *sim.Proc) {
		if !h.Crash("dash") {
			t.Error("crash refused")
			return
		}
		w := ch.NewWriter(0)
		for i := int64(0); i < 12; i++ {
			w.Write(p, i, 1<<16, nil)
		}
		cursor, lag, fromSpill, ok := h.Resume("dash")
		if !ok || !fromSpill {
			t.Errorf("Resume cursor=%d lag=%d fromSpill=%v ok=%v, want fromSpill",
				cursor, lag, fromSpill, ok)
		}
		if cursor != 1 || lag != 12 {
			t.Errorf("Resume cursor=%d lag=%d, want 1/12", cursor, lag)
		}
		ch.Close()
	})
	eng.Go("dash", func(p *sim.Proc) {
		var got int64
		for {
			if _, ok := sub.Fetch(p); !ok {
				break
			}
			got++
		}
		if got != 12 {
			t.Errorf("delivered %d, want 12", got)
		}
	})
	eng.Run()
	snap := sub.Snapshot()
	// Tail cap 4 over 12 writes evicts sequences 1-8 to the spill store;
	// catch-up must have read exactly those from disk.
	if snap.SpillReads != 8 {
		t.Errorf("spill reads %d, want 8: %+v", snap.SpillReads, snap)
	}
	if snap.Resumes != 1 || snap.Unaccounted() != 0 {
		t.Errorf("resume ledger: %+v", snap)
	}
}

// Mutation check for the ledger: a cursor that advances past a
// spill-resident sequence without delivering or counting it (the shape of
// a catch-up read that skips) must leave the subscriber's conservation
// equation unbalanced. The chaos sub-conservation oracle audits exactly
// Unaccounted, so this proves the ledger can see such a bug.
func TestCursorSkipOpensLedgerHole(t *testing.T) {
	eng, _, ch := newTestChannel(0, 0)
	h := ch.AttachHub(SubConfig{BufCap: 2, TailCap: 4})
	sub := h.Subscribe("dash", 2)
	eng.Go("driver", func(p *sim.Proc) {
		h.Crash("dash")
		w := ch.NewWriter(0)
		for i := int64(0); i < 12; i++ {
			w.Write(p, i, 1<<16, nil)
		}
		if _, _, fromSpill, ok := h.Resume("dash"); !ok || !fromSpill {
			t.Errorf("Resume fromSpill=%v ok=%v, want a spill catch-up", fromSpill, ok)
		}
		if u := sub.Snapshot().Unaccounted(); u != 0 {
			t.Errorf("ledger unbalanced before the skip: %d", u)
		}
		sub.advance() // the seeded bug: skip sequence 1 undelivered
		ch.Close()
	})
	eng.Go("dash", func(p *sim.Proc) {
		for {
			if _, ok := sub.Fetch(p); !ok {
				return
			}
		}
	})
	eng.Run()
	if snap := sub.Snapshot(); snap.Unaccounted() == 0 {
		t.Fatalf("skipped sequence left the ledger balanced: %+v", snap)
	}
}

// Edge case: a double crash of the same subscriber within one step is a
// no-op — the second Crash reports false and must not bump the reconnect
// generation, or a stale SubNotice could win the dedupe race.
func TestDoubleCrashSameStepIsIdempotent(t *testing.T) {
	eng, _, ch := newTestChannel(0, 0)
	h := ch.AttachHub(SubConfig{})
	sub := h.Subscribe("dash", 2)
	eng.Go("driver", func(p *sim.Proc) {
		w := ch.NewWriter(0)
		w.Write(p, 0, 1<<16, nil)
		if !h.Crash("dash") {
			t.Error("first crash refused")
		}
		gen := sub.Gen()
		if h.Crash("dash") {
			t.Error("second crash in the same step succeeded, want no-op")
		}
		if sub.Gen() != gen {
			t.Errorf("double crash bumped gen %d -> %d", gen, sub.Gen())
		}
		if !sub.Crashed() {
			t.Error("subscriber not crashed after double crash")
		}
		if _, _, _, ok := h.Resume("dash"); !ok {
			t.Error("resume after double crash refused")
		}
		if sub.Crashed() {
			t.Error("still crashed after resume")
		}
		ch.Close()
	})
	eng.Run()
	if snap := sub.Snapshot(); snap.Unaccounted() != 0 {
		t.Errorf("ledger after crash/crash/resume: %+v", snap)
	}
}

// Edge case: a subscriber crashed and resumed while a buffered transfer
// is in flight. The crash clears the buffer and the resume cannot restage
// a sequence already evicted from the tail, so the finished transfer
// must not pop the (now empty) buffer: the sequence is re-read from
// spill instead.
func TestCrashResumeMidTransfer(t *testing.T) {
	eng, _, ch := newTestChannel(0, 0)
	h := ch.AttachHub(SubConfig{BufCap: 2, TailCap: 1})
	sub := h.Subscribe("dash", 2)
	var got int64
	eng.Go("dash", func(p *sim.Proc) {
		for {
			if _, ok := sub.Fetch(p); !ok {
				return
			}
			got++
		}
	})
	eng.Go("driver", func(p *sim.Proc) {
		// Both staged; the tail keeps only sequence 2, so 1 spills.
		h.Publish(&Meta{Step: 1, Size: 1 << 20})
		h.Publish(&Meta{Step: 2, Size: 1 << 20})
		p.Yield() // the subscriber starts transferring sequence 1
		h.Crash("dash")
		h.Resume("dash")
		h.Close()
	})
	eng.Run()
	snap := sub.Snapshot()
	if got != 2 || snap.SpillReads != 1 || snap.Buffered != 0 || snap.Unaccounted() != 0 {
		t.Errorf("delivered %d, want 2 (one from spill): %+v", got, snap)
	}
}

// bruteMinCursor is the watermark by full scan: the lowest cursor over
// every subscriber, crashed ones included, or the live edge when there
// are none. The hub keeps it incrementally; this is the reference.
func bruteMinCursor(h *SubHub) int64 {
	min := h.pubSeq + 1
	for _, s := range h.order {
		if s.cursor < min {
			min = s.cursor
		}
	}
	return min
}

// watermarkDiff checks the incremental watermark against the full scan
// and every subscriber's ledger. It reports the first mismatch, tagged
// with the step that produced it.
func watermarkDiff(h *SubHub, step string) error {
	if got, want := h.minCursor(), bruteMinCursor(h); got != want {
		return fmt.Errorf("%s: minCursor %d, brute force %d (pubSeq %d, %d subs)",
			step, got, want, h.pubSeq, len(h.order))
	}
	for _, snap := range h.Snapshots() {
		if u := snap.Unaccounted(); u != 0 {
			return fmt.Errorf("%s: subscriber %s unaccounted %d: %+v", step, snap.ID, u, snap)
		}
	}
	return nil
}

// Differential test of the incremental watermark: a seeded random
// interleaving of Subscribe, Publish, Fetch, Crash, Resume, Replay and
// Close over a tiny tail and buffer, with and without spill, must keep
// minCursor equal to the full scan and every ledger balanced after every
// step. A scripted prefix covers the edge cases first: an empty hub, the
// first subscriber joining it, every subscriber at the live edge, and a
// crashed subscriber holding the minimum while the others move on.
func TestWatermarkMatchesBruteForce(t *testing.T) {
	for _, noSpill := range []bool{false, true} {
		for seed := int64(1); seed <= 16; seed++ {
			t.Run(fmt.Sprintf("nospill=%v/seed=%d", noSpill, seed), func(t *testing.T) {
				if err := runWatermarkDiff(seed, noSpill); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func runWatermarkDiff(seed int64, noSpill bool) error {
	eng, _, ch := newTestChannel(0, 0)
	h := ch.AttachHub(SubConfig{BufCap: 2, TailCap: 3, DisableSpill: noSpill})
	rng := sim.NewRand(seed)
	var fail error
	record := func(step string) {
		if fail == nil {
			fail = watermarkDiff(h, step)
		}
	}

	// Each subscriber's process fetches once per token; once its token
	// queue closes, Get stops blocking and the process drains to the end.
	var subs []*Subscriber
	var tokens []*sim.Queue[int]
	var procs []*sim.Proc
	subscribe := func() {
		id := fmt.Sprintf("s%d", len(subs))
		s := h.Subscribe(id, 2+len(subs)%4)
		q := sim.NewQueue[int](eng, 0)
		subs, tokens = append(subs, s), append(tokens, q)
		procs = append(procs, eng.Go(id, func(p *sim.Proc) {
			for {
				q.Get(p)
				if _, ok := s.Fetch(p); !ok {
					return
				}
				record("fetch " + id)
			}
		}))
		record("subscribe " + id)
	}
	var step int64
	publish := func() {
		step++
		h.Publish(&Meta{Step: step, Size: 1 << 12, SrcNode: int(step % 2)})
		record(fmt.Sprintf("publish %d", step))
	}
	fetch := func(i int) { tokens[i].TryPut(1) }

	eng.Go("driver", func(p *sim.Proc) {
		settle := func() { p.Sleep(sim.Time(rng.Intn(3)) * sim.Millisecond) }

		// Empty hub: the watermark is the live edge.
		record("empty")
		publish()
		publish()
		// The first subscriber joins the empty hub; a second joins with
		// every subscriber at the live edge.
		subscribe()
		subscribe()
		// A crashed subscriber holds the minimum while the other runs
		// past it and the tail evicts under both.
		h.Crash(subs[0].ID())
		record("crash s0")
		for i := 0; i < 6; i++ {
			publish()
			fetch(1)
			settle()
		}
		if h.minCursor() != subs[0].cursor {
			fail = fmt.Errorf("crashed s0 at cursor %d does not hold the minimum %d",
				subs[0].cursor, h.minCursor())
		}
		h.Resume(subs[0].ID())
		record("resume s0")

		for n := 0; n < 400 && fail == nil; n++ {
			i := rng.Intn(len(subs))
			id := subs[i].ID()
			switch r := rng.Intn(100); {
			case r < 4 && len(subs) < 6:
				subscribe()
			case r < 40:
				publish()
			case r < 80:
				fetch(i)
			case r < 86:
				h.Crash(id)
				record("crash " + id)
			case r < 93:
				h.Resume(id)
				record("resume " + id)
			case r < 97:
				h.Replay(id, subs[i].cursor)
				record("replay " + id)
			case n > 300:
				h.Close()
				record("close")
			}
			if rng.Intn(2) == 0 {
				p.Yield() // leave transfers and spill reads in flight
			} else {
				settle()
			}
			record(fmt.Sprintf("step %d", n))
		}

		// Wind down: revive everyone, close, and let every subscriber drain.
		for _, s := range subs {
			h.Resume(s.ID())
		}
		h.Close()
		for _, q := range tokens {
			q.Close()
		}
		for _, pr := range procs {
			p.Join(pr)
		}
		record("drained")
		for _, s := range subs {
			if s.cursor != h.pubSeq+1 && fail == nil {
				fail = fmt.Errorf("%s drained at cursor %d, live edge %d", s.ID(), s.cursor, h.pubSeq+1)
			}
		}
	})
	eng.Run()
	return fail
}

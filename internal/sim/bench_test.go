package sim

import "testing"

// BenchmarkEventThroughput measures raw scheduler throughput: how many
// events the kernel executes per second of wall time.
func BenchmarkEventThroughput(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(Second, tick)
		}
	}
	e.After(Second, tick)
	b.ResetTimer()
	e.Run()
	if n != b.N {
		b.Fatalf("executed %d, want %d", n, b.N)
	}
}

// BenchmarkProcContextSwitch measures the park/unpark handshake cost of
// the coroutine-style process scheduler.
func BenchmarkProcContextSwitch(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Second)
		}
	})
	b.ResetTimer()
	e.Run()
}

// spawnAllocs is what one proc's whole life (spawn, one sleep, finish)
// allocates while procs switch over channels, each on its own goroutine.
// A coroutine-based switch is measured against this number.
const spawnAllocs = 7

func sleepOnce(p *Proc) { p.Sleep(Second) }

// BenchmarkProcSpawn measures a proc's whole life: spawn, one sleep,
// finish.
func BenchmarkProcSpawn(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	for i := 0; i < b.N; i++ {
		e.Go("proc", sleepOnce)
		e.Run()
	}
}

// TestProcSpawnAllocs pins spawnAllocs: a proc may not start costing
// more allocations unnoticed.
func TestProcSpawnAllocs(t *testing.T) {
	e := NewEngine(1)
	got := testing.AllocsPerRun(100, func() {
		e.Go("proc", sleepOnce)
		e.Run()
	})
	if got > spawnAllocs {
		t.Errorf("proc spawn costs %v allocs, want <= %d", got, spawnAllocs)
	}
}

// BenchmarkQueueHandoff measures producer/consumer handoff through a
// bounded queue.
func BenchmarkQueueHandoff(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	q := NewQueue[int](e, 4)
	e.Go("producer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Put(p, i)
		}
		q.Close()
	})
	e.Go("consumer", func(p *Proc) {
		for {
			if _, ok := q.Get(p); !ok {
				return
			}
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkResourceAcquireRelease measures semaphore churn under
// contention.
func BenchmarkResourceAcquireRelease(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	r := NewResource(e, 2)
	for w := 0; w < 4; w++ {
		e.Go("worker", func(p *Proc) {
			for i := 0; i < b.N/4; i++ {
				r.Acquire(p, 1)
				p.Sleep(Millisecond)
				r.Release(1)
			}
		})
	}
	b.ResetTimer()
	e.Run()
}

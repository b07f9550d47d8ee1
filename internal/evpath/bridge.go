package evpath

import (
	"repro/internal/sim"
)

// bridge carries events from one manager's node to a stone on another
// manager, through the simulated interconnect. Each bridge runs a courier
// process that drains a queue, charges the transfer to the machine, and
// resubmits on the remote side — so bridge traffic is asynchronous and
// contends for NICs like any other data.
type bridge struct {
	owner  *Manager
	target *Stone
	q      *sim.Queue[*Event]
	stats  BridgeStats
}

// BridgeStats reports a bridge's activity.
type BridgeStats struct {
	Sent    int64
	Bytes   int64
	Dropped int64
}

// descriptorBytes is the minimum on-wire size of any event (headers).
const descriptorBytes = 64

// NewBridge returns a stone that forwards submitted events to target,
// which lives on (possibly) another node. queueCap bounds the courier's
// backlog; 0 means unbounded. Events that arrive when a bounded queue is
// full are dropped (and counted), mirroring lossy monitoring channels.
func (m *Manager) NewBridge(target *Stone, queueCap int) *Stone {
	m.nextID++
	b := &bridge{
		owner:  m,
		target: target,
		q:      sim.NewQueue[*Event](m.eng, queueCap),
	}
	s := &Stone{id: m.nextID, mgr: m, bridge: b}
	m.eng.Go("evpath-bridge", func(p *sim.Proc) { b.run(p) })
	return s
}

func (b *bridge) forward(ev *Event) {
	if !b.q.TryPut(ev) {
		b.stats.Dropped++
		b.dropInstant(ev, "queue-full")
	}
}

func (b *bridge) run(p *sim.Proc) {
	for {
		ev, ok := b.q.Get(p)
		if !ok {
			return
		}
		size := ev.Size + descriptorBytes
		sp := b.owner.tracer.Begin(ev.Span, "evpath", "send").
			Node(b.owner.node).Attr("type", ev.Type).
			AttrInt("bytes", size).AttrInt("dst", int64(b.target.mgr.node))
		if b.owner.machine != nil {
			// The fault schedule may lose the message outright (lossy
			// control overlay) or the wire may fail it (dead/partitioned
			// endpoint); either way the event never reaches the target.
			if b.owner.machine.Faults().DropCtl() {
				b.stats.Dropped++
				sp.Attr("drop", "ctl-fault").End()
				continue
			}
			if !b.owner.machine.Send(p, b.owner.node, b.target.mgr.node, size) {
				b.stats.Dropped++
				sp.Attr("drop", "wire").End()
				continue
			}
		}
		b.stats.Sent++
		b.stats.Bytes += size
		// Restamp so the receive side chains from the transfer, not the
		// original submitter: hop-by-hop causality survives multi-bridge
		// overlays.
		if sp != nil {
			ev.Span = sp.ID()
		}
		sp.End()
		b.target.handle(ev)
	}
}

// dropInstant records an enqueue-side drop (no courier involved).
func (b *bridge) dropInstant(ev *Event, why string) {
	b.owner.tracer.Instant(ev.Span, "evpath", "drop").
		Node(b.owner.node).Attr("type", ev.Type).Attr("why", why).End()
}

// CloseBridge shuts down a bridge stone's courier after the backlog
// drains. Calling it on a non-bridge stone is a no-op.
func (s *Stone) CloseBridge() {
	if s.bridge != nil {
		s.bridge.q.Close()
	}
}

// BridgeStats returns the bridge counters (zero value for non-bridges).
func (s *Stone) BridgeStats() BridgeStats {
	if s.bridge == nil {
		return BridgeStats{}
	}
	return s.bridge.stats
}

// BridgeBacklog returns the number of events awaiting transfer.
func (s *Stone) BridgeBacklog() int {
	if s.bridge == nil {
		return 0
	}
	return s.bridge.q.Len()
}

// Mailbox is a terminal stone plus a queue, the usual way a simulated
// process receives events from an overlay: remote stones bridge into the
// mailbox's stone, and the owning process blocks on Recv.
type Mailbox struct {
	Stone *Stone
	q     *sim.Queue[*Event]
}

// NewMailbox returns a mailbox on m with the given queue capacity
// (0 = unbounded).
func NewMailbox(m *Manager, queueCap int) *Mailbox {
	q := sim.NewQueue[*Event](m.eng, queueCap)
	return &Mailbox{Stone: m.NewStone(QueueTerminal(q)), q: q}
}

// Recv blocks until an event arrives; ok is false if the mailbox closed.
func (mb *Mailbox) Recv(p *sim.Proc) (*Event, bool) {
	return mb.q.Get(p)
}

// RecvTimeout is Recv with a deadline.
func (mb *Mailbox) RecvTimeout(p *sim.Proc, d sim.Time) (*Event, bool) {
	return mb.q.GetTimeout(p, d)
}

// TryRecv returns an event if one is queued.
func (mb *Mailbox) TryRecv() (*Event, bool) { return mb.q.TryGet() }

// Len returns the number of queued events.
func (mb *Mailbox) Len() int { return mb.q.Len() }

// Close closes the mailbox queue.
func (mb *Mailbox) Close() { mb.q.Close() }

// Closed reports whether Close has been called.
func (mb *Mailbox) Closed() bool { return mb.q.Closed() }

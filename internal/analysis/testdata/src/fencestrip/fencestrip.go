// Package fencestrip is the chaos cross-check fixture for roundflow: a
// distilled copy of the container manager's serve loop in the round-header
// shape internal/core uses, with the epoch fence guard the split-brain fix
// added sitting directly above the serve dispatch. The companion test
// verifies the loop is clean as written, then strips the guard block and
// asserts roundflow reports the missing fence at the guard's own line.
package fencestrip

type Event struct {
	Type string
	Data any
}

// Round is the header every round message embeds.
type Round struct {
	Seq   int64
	Epoch int64
}

func (r *Round) round() *Round { return r }

type roundMsg interface{ round() *Round }

type ctlReq interface {
	roundMsg
	ctlType() string
}

type IncreaseReq struct {
	Round
	N int
}

func (*IncreaseReq) ctlType() string { return "ctl.increase" }

type IncreaseResp struct {
	Round
	Size int
}

type queue struct{ q []*Event }

func (q *queue) Recv() *Event {
	if len(q.q) == 0 {
		return nil
	}
	ev := q.q[0]
	q.q = q.q[1:]
	return ev
}

type manager struct {
	fencing     bool
	fencedEpoch int64
	served      map[int64]roundMsg
	size        int
	out         []*Event
}

// reply stamps the response header and queues it.
func (m *manager) reply(seq int64, resp roundMsg) {
	h := resp.round()
	h.Seq, h.Epoch = seq, m.fencedEpoch
	m.out = append(m.out, &Event{Type: "resp", Data: resp})
}

// serveLoop is the distilled manager loop: dedupe retried rounds from
// the served cache, refuse rounds from deposed manager epochs, then
// serve — every guard read through the round header.
func (m *manager) serveLoop(in *queue) {
	for {
		ev := in.Recv()
		if ev == nil {
			return
		}
		req, ok := ev.Data.(ctlReq)
		if !ok {
			continue
		}
		h := req.round()
		if cached, dup := m.served[h.Seq]; dup {
			m.reply(h.Seq, cached)
			continue
		}
		if e := h.Epoch; m.fencing {
			if e < m.fencedEpoch {
				continue
			}
			if e > m.fencedEpoch {
				m.fencedEpoch = e
			}
		}
		switch req := req.(type) {
		case *IncreaseReq:
			m.size += req.N
			resp := &IncreaseResp{Size: m.size}
			m.served[h.Seq] = resp
			m.reply(h.Seq, resp)
		}
	}
}

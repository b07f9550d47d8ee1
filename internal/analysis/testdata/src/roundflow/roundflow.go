// Package roundflow is a golden-file fixture for the roundflow analyzer:
// the issue leg (deadline/retry budget before every send of a round-path
// Req), the serve leg (Seq dedupe + epoch fence on all paths before a
// state-applying round dispatch), and the closure leg (mk-closure Reqs
// handed to a budgeted caller).
package roundflow

// Event is the fixture's stand-in for evpath.Event — the send envelope.
type Event struct {
	Type string
	Data any
}

// IncreaseReq / IncreaseResp are round-path messages: Req/Resp suffix
// carrying Seq and Epoch.
type IncreaseReq struct {
	Seq   int64
	Epoch int64
	N     int
}

type IncreaseResp struct {
	Seq   int64
	Epoch int64
	OK    bool
}

// PingNotice is a round-path Notice (Seq+Epoch, no Shard).
type PingNotice struct {
	Seq   int64
	Epoch int64
}

// StealReq carries a Shard field: the shard-relay family has its own
// single-writer discipline and is exempt from the round lifecycle.
type StealReq struct {
	Seq   int64
	Epoch int64
	Shard int
}

type policy struct {
	CallTimeout int64
	CallRetries int64
}

type stone struct{ q []*Event }

func (s *stone) Submit(ev *Event) { s.q = append(s.q, ev) }

// send wraps a payload as an Event; its summary marks the parameter as
// an event-data sink.
func (s *stone) send(data any) { s.q = append(s.q, &Event{Type: "w", Data: data}) }

type manager struct {
	policy      policy
	out         *stone
	fencedEpoch int64
	nextSeq     int64
	count       int
	served      map[int64]*IncreaseResp
	seen        map[int64]int64
	inbox       []any
}

// reqSeq extracts the Seq off a round message — the dedupe primitive.
func reqSeq(v any) int64 {
	switch r := v.(type) {
	case *IncreaseReq:
		return r.Seq
	case *IncreaseResp:
		return r.Seq
	}
	return -1
}

// reqEpoch extracts the Epoch — the fence primitive.
func reqEpoch(v any) (int64, bool) {
	switch r := v.(type) {
	case *IncreaseReq:
		return r.Epoch, true
	case *IncreaseResp:
		return r.Epoch, true
	}
	return 0, false
}

// stampReq assigns Epoch on a round Req through a type-switch binding,
// the way stampReqEpoch does; its summary stamps parameter 0.
func stampReq(v any, epoch int64) {
	switch r := v.(type) {
	case *IncreaseReq:
		r.Epoch = epoch
	}
}

// --- serve leg ---

// goodServe establishes both guards before the state-applying dispatch.
func (m *manager) goodServe(ev *Event) {
	seq := reqSeq(ev.Data)
	if e, ok := reqEpoch(ev.Data); ok && e < m.fencedEpoch {
		return
	}
	switch r := ev.Data.(type) {
	case *IncreaseReq:
		m.served[seq] = &IncreaseResp{Seq: r.Seq, Epoch: m.fencedEpoch, OK: true}
	}
}

// goodServeDirect guards the plain type-assert form: both reads
// dominate the assertion.
func (m *manager) goodServeDirect(ev *Event) {
	if reqSeq(ev.Data) <= m.nextSeq {
		return
	}
	if e, ok := reqEpoch(ev.Data); !ok || e < m.fencedEpoch {
		return
	}
	r, ok := ev.Data.(*IncreaseReq)
	if !ok {
		return
	}
	m.count++
	_ = r
}

// badServeNoFence dedupes but never fence-checks.
func (m *manager) badServeNoFence(ev *Event) {
	seq := reqSeq(ev.Data)
	switch ev.Data.(type) { // want "epoch fence-check"
	case *IncreaseReq:
		m.served[seq] = nil
	}
}

// badServeNoDedupe fence-checks but never dedupes.
func (m *manager) badServeNoDedupe(ev *Event) {
	if e, ok := reqEpoch(ev.Data); ok && e < m.fencedEpoch {
		return
	}
	switch ev.Data.(type) { // want "Seq dedupe guard"
	case *IncreaseReq:
		m.count++
	}
}

// badServeOneBranch guards on the replay branch only; the must-join
// kills both facts.
func (m *manager) badServeOneBranch(ev *Event, replay bool) {
	if replay {
		seq := reqSeq(ev.Data)
		if e, ok := reqEpoch(ev.Data); ok && e < seq {
			return
		}
	}
	switch ev.Data.(type) { // want "Seq dedupe guard" "epoch fence-check"
	case *IncreaseReq:
		m.count++
	}
}

// kindOf dispatches without applying state: no obligations.
func kindOf(v any) string {
	switch v.(type) {
	case *IncreaseReq:
		return "inc"
	default:
		return "?"
	}
}

// shardServe dispatches a shard-relay message: a separate family, no
// round obligations.
func (m *manager) shardServe(ev *Event) {
	switch ev.Data.(type) {
	case *StealReq:
		m.count++
	}
}

// badAssert applies state around an unguarded round type assertion.
func (m *manager) badAssert(ev *Event) {
	r, ok := ev.Data.(*IncreaseResp) // want "Seq dedupe guard" "epoch fence-check"
	if ok {
		m.count++
	}
	_ = r
}

// pump is the audited exception: a Notice pump that dedupes per source
// inside the arm, with downstream rounds fenced on their own.
func (m *manager) pump(ev *Event) {
	//iocheck:allow roundflow fixture: notice pump dedupes per-source inside the arm; downstream rounds are fenced on issue
	switch d := ev.Data.(type) {
	case *PingNotice:
		if cur, ok := m.seen[d.Seq]; !ok || d.Seq > cur {
			m.seen[d.Seq] = d.Seq
		}
	}
}

// --- issue leg ---

// goodIssue registers the deadline and retry budget before the send.
func (m *manager) goodIssue(seq int64) {
	req := &IncreaseReq{Seq: seq, N: 1}
	stampReq(req, m.fencedEpoch)
	timeout := m.policy.CallTimeout
	for attempt := int64(0); attempt <= m.policy.CallRetries; attempt++ {
		ev := &Event{Type: "inc", Data: req}
		m.out.Submit(ev)
		timeout *= 2
	}
	_ = timeout
}

// badIssueNoDeadline retries but never bounds the wait.
func (m *manager) badIssueNoDeadline(seq int64) {
	req := &IncreaseReq{Seq: seq}
	for attempt := int64(0); attempt <= m.policy.CallRetries; attempt++ {
		m.out.Submit(&Event{Type: "inc", Data: req}) // want "no deadline registered"
	}
}

// badIssueNoRetries bounds the wait but sends outside a retry budget.
func (m *manager) badIssueNoRetries(seq int64) {
	req := &IncreaseReq{Seq: seq}
	deadline := m.policy.CallTimeout
	ev := &Event{Type: "inc", Data: req}
	m.out.Submit(ev) // want "no retry budget"
	_ = deadline
}

// badIssueViaSink: the send happens through an event-data sink callee.
func (m *manager) badIssueViaSink(seq int64) {
	req := &IncreaseReq{Seq: seq}
	m.out.send(req) // want "no deadline registered" "no retry budget"
}

// --- closure leg ---

// takeResp pops the next delivered response, if any.
func (m *manager) takeResp() any {
	if len(m.inbox) == 0 {
		return nil
	}
	v := m.inbox[0]
	m.inbox = m.inbox[1:]
	return v
}

// call is the budgeted issuer: mk composes the Req, call owns deadline,
// retries, stamping, the send, and the seq-deduped response filter.
func (m *manager) call(mk func(int64) any) any {
	m.nextSeq++
	req := mk(m.nextSeq)
	stampReq(req, m.fencedEpoch)
	deadline := m.policy.CallTimeout
	for attempt := int64(0); attempt <= m.policy.CallRetries; attempt++ {
		ev := &Event{Type: "call", Data: req}
		m.out.Submit(ev)
		if got := m.takeResp(); got != nil && reqSeq(got) == m.nextSeq {
			return got
		}
		deadline *= 2
	}
	return nil
}

// fire enqueues whatever mk builds with no budget anywhere.
func (m *manager) fire(mk func(int64) any) {
	m.inbox = append(m.inbox, mk(1))
}

// goodClosure: the Req literal rides a closure into the budgeted caller.
func (m *manager) goodClosure(n int) {
	m.call(func(seq int64) any { return &IncreaseReq{Seq: seq, N: n} })
}

// badClosure hands the Req to a callee that never registers a budget.
func (m *manager) badClosure(n int) {
	m.fire(func(seq int64) any { return &IncreaseReq{Seq: seq, N: n} }) // want "never registers"
}

// goodAssertOnCall asserts directly on the budgeted caller's result: the
// callee's own dedupe/fence summaries guard the dispatch, because the
// call evaluates before the assertion.
func (m *manager) goodAssertOnCall(n int) {
	resp, _ := m.call(func(seq int64) any { return &IncreaseReq{Seq: seq, N: n} }).(*IncreaseResp)
	if resp != nil && resp.OK {
		m.count++
	}
}

// --- header shape ---

// Round is the embedded round header; roundMsg/ctlReq expose it.
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

type QueryReq struct {
	Round
	Max int
}

func (*QueryReq) ctlType() string { return "ctl.query" }

type QueryResp struct {
	Round
	Size int
}

// goodHeaderServe dedupes and fences through the header before the
// state-applying dispatch; asserting to the request interface is not a
// dispatch.
func (m *manager) goodHeaderServe(ev *Event, fencing bool) {
	req, ok := ev.Data.(ctlReq)
	if !ok {
		return
	}
	h := req.round()
	if e := h.Epoch; fencing {
		if e < m.fencedEpoch {
			return
		}
		m.fencedEpoch = e
	}
	if _, dup := m.seen[h.Seq]; dup {
		return
	}
	switch req := req.(type) {
	case *QueryReq:
		m.count += req.Max
		resp := &QueryResp{Size: m.count}
		r := resp.round()
		r.Seq, r.Epoch = h.Seq, m.fencedEpoch
		m.out.send(resp)
	}
}

// goodHeaderCall stamps the header of a request-interface value and sends
// it under the budget.
func (m *manager) goodHeaderCall(mk func() ctlReq) {
	req := mk()
	h := req.round()
	h.Seq, h.Epoch = m.nextSeq, m.fencedEpoch
	deadline := m.policy.CallTimeout
	for attempt := int64(0); attempt <= m.policy.CallRetries; attempt++ {
		m.out.Submit(&Event{Type: req.ctlType(), Data: req})
		deadline *= 2
	}
}

// badHeaderCall sends a request-interface value with no budget.
func (m *manager) badHeaderCall(mk func() ctlReq) {
	req := mk()
	m.out.Submit(&Event{Type: req.ctlType(), Data: req}) // want "no deadline registered" "no retry budget"
}

// Package epochset is a golden-file fixture for the epochset analyzer.
package epochset

// Event is the fixture's stand-in for evpath.Event — the send sink.
type Event struct {
	Type string
	Data any
}

// QueryReq is a round-path message: Req suffix carrying Seq and Epoch.
type QueryReq struct {
	Seq   int64
	Epoch int64
	Name  string
}

type bridge struct{ out []*Event }

// send wraps a payload as an Event; its summary marks the parameter as
// an event-data sink.
func (b *bridge) send(data any) {
	b.out = append(b.out, &Event{Type: "req", Data: data})
}

// stampReq assigns Epoch through a helper; its summary stamps the
// parameter.
func stampReq(req *QueryReq, epoch int64) { req.Epoch = epoch }

// good stamps directly before the send.
func good(b *bridge, seq, epoch int64) {
	req := &QueryReq{Seq: seq, Name: "bonds"}
	req.Epoch = epoch
	b.send(req)
}

// goodViaHelper: the stamp travels through the callee summary.
func goodViaHelper(b *bridge, seq, epoch int64) {
	req := &QueryReq{Seq: seq}
	stampReq(req, epoch)
	b.send(req)
}

// goodLiteral: the literal itself carries the Epoch key.
func goodLiteral(b *bridge, seq, epoch int64) {
	b.send(&QueryReq{Seq: seq, Epoch: epoch})
}

// bad stamps on one branch only — unstamped at the merge.
func bad(b *bridge, seq, epoch int64, retry bool) {
	req := &QueryReq{Seq: seq}
	if retry {
		req.Epoch = epoch
	}
	b.send(req) // want "without Epoch assigned on every path"
}

// badDirect never stamps at all.
func badDirect(b *bridge, seq int64) {
	req := &QueryReq{Seq: seq}
	b.send(req) // want "without Epoch assigned on every path"
}

// badInline wraps the message in an Event literal without a stamp.
func badInline(seq int64) *Event {
	req := &QueryReq{Seq: seq}
	return &Event{Type: "req", Data: req} // want "without Epoch assigned on every path"
}

// audited: the replay path re-sends a message the dedupe cache already
// stamped, which the analysis cannot see; the audit records why.
func audited(b *bridge, seq int64) {
	req := &QueryReq{Seq: seq}
	//iocheck:allow epochset fixture: replay re-sends a cached pre-stamped message, audited
	b.send(req)
}

// Round is the header round messages embed; their Seq and Epoch are
// promoted fields.
type Round struct {
	Seq   int64
	Epoch int64
}

// QueryResp embeds the header.
type QueryResp struct {
	Round
	Size int
}

type stone struct{ q []*Event }

func (s *stone) Submit(ev *Event) { s.q = append(s.q, ev) }

// goodHeaderLiteral: the Epoch rides inside the header key.
func goodHeaderLiteral(s *stone, seq, epoch int64) {
	resp := &QueryResp{Round: Round{Seq: seq, Epoch: epoch}, Size: 1}
	s.Submit(&Event{Type: "resp", Data: resp})
}

// goodHeaderCopy: a whole header copied from the request carries its
// epoch.
func goodHeaderCopy(s *stone, req *QueryResp) {
	resp := &QueryResp{Round: req.Round}
	s.Submit(&Event{Type: "resp", Data: resp})
}

// goodHeaderStamp stamps the promoted field.
func goodHeaderStamp(s *stone, seq, epoch int64) {
	resp := &QueryResp{Round: Round{Seq: seq}}
	resp.Epoch = epoch
	s.Submit(&Event{Type: "resp", Data: resp})
}

// badHeader sets only the header's Seq before the send.
func badHeader(s *stone, seq int64) {
	resp := &QueryResp{Round: Round{Seq: seq}, Size: 1}
	s.Submit(&Event{Type: "resp", Data: resp}) // want "without Epoch assigned on every path"
}

// Package ctlmsg is a golden-file fixture for the ctlmsg analyzer: a
// miniature of internal/core's round messages, built on the embedded
// round header.
package ctlmsg

// Round is the header every round message embeds.
type Round struct {
	Seq   int64
	Epoch int64
}

func (r *Round) round() *Round { return r }

type roundMsg interface{ round() *Round }

// ctlReq is a round request: the header plus its event type.
type ctlReq interface {
	roundMsg
	ctlType() string
}

// PingReq is a request with a managerLoop arm.
type PingReq struct {
	Round
	N int
}

func (*PingReq) ctlType() string { return "ctl.ping" }

// PingResp is a response: matched by Seq in the issuer's mailbox, so it
// needs no arm.
type PingResp struct{ Round }

// LostReq implements ctlReq but no managerLoop arm serves it.
type LostReq struct{ Round } // want "round request LostReq has no managerLoop arm"

func (*LostReq) ctlType() string { return "ctl.lost" }

// BeatMsg is a shard pump message with a dispatch arm.
type BeatMsg struct {
	Round
	Shard int
}

// StealReq embeds the header but is no ctlReq (no event type): it rides
// the pump, and shardDispatch handles it.
type StealReq struct {
	Round
	Shard int
	N     int
}

// StrayMsg never made it into a dispatch arm.
type StrayMsg struct { // want "round message StrayMsg is neither a request nor a response"
	Round
	Shard int
}

// NoticeMsg is a subscriber pump notice handled by dispatch.
type NoticeMsg struct {
	Round
	SubID string
}

// StrayNotice is a pump notice nobody handles.
type StrayNotice struct { // want "no dispatch/shardDispatch arm handles it"
	Round
	SubID string
}

// LogRecord carries Seq and Epoch as plain fields of a log entry: it does
// not embed the header, so it is no round message.
type LogRecord struct {
	Seq   int64
	Epoch int64
	Shard int
}

// PumpReq carries a Seq but no header: served from a pump, outside the
// round contract.
type PumpReq struct {
	Seq  int64
	From string
}

func shardDispatch(v any) bool {
	switch v.(type) {
	case *BeatMsg, *StealReq:
		return true
	}
	return false
}

func dispatch(v any) bool {
	switch v.(type) {
	case *NoticeMsg:
		return true
	}
	return false
}

type server struct{ served map[int64]roundMsg }

func (s *server) managerLoop(v any) roundMsg {
	req, ok := v.(ctlReq)
	if !ok {
		return nil
	}
	h := req.round()
	switch req.(type) {
	case *PingReq:
		resp := &PingResp{Round: Round{Seq: h.Seq, Epoch: h.Epoch}}
		s.served[h.Seq] = resp
		return resp
	}
	return nil
}

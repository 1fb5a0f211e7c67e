package server

// Exports for forward_test.go, which stands a cluster behind a
// forwarding server and so must live in package server_test (the
// cluster package imports this one).

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/qos"
)

var (
	ReadFrame          = readFrame
	WriteFrame         = writeFrame
	PipelineMixedSizes = pipelineMixedSizes
)

// ForwardedFrame is one op × variant sample request of an op that a
// forwarding server hands on.
type ForwardedFrame struct {
	Name    string
	Payload []byte
}

// ForwardedFrames encodes every variant (plain, traced, tenant-tagged)
// of every op-table row a forwarding server hands on — all rows but the
// inline ones — from the table's sample bodies, with deadline dl.
func ForwardedFrames(tb testing.TB, dl time.Time) []ForwardedFrame {
	var out []ForwardedFrame
	for _, tr := range tableRequests(tb) {
		if opTable[tr.req.op].inline {
			continue
		}
		tr.req.deadline = dl
		out = append(out, ForwardedFrame{tr.name, encodeRequest(tr.req)})
	}
	return out
}

// RequestParts is a decoded request's header, and its body bytes as
// they sit in the frame.
type RequestParts struct {
	Op       Op
	WireOp   byte
	ID       uint64
	Deadline time.Time
	Trace    obs.TraceContext
	Tenant   string
	Class    qos.Class
	Body     []byte
}

// ParseRequest decodes a request payload into its parts.
func ParseRequest(payload []byte) (RequestParts, error) {
	req, err := decodeRequest(payload)
	if err != nil {
		return RequestParts{}, err
	}
	return RequestParts{req.op, payload[1], req.id, req.deadline, req.tc,
		req.tenant, req.class, req.body}, nil
}

// Answer encodes a response to op with id: the op's sample OK body
// when code is CodeOK, else an error carrying msg.
func Answer(op Op, id uint64, code Code, msg string) []byte {
	resp := &response{id: id, code: code, msg: msg}
	if code == CodeOK {
		for _, s := range sampleResponses() {
			if s.op == op {
				resp = s.resp
				resp.id = id
				break
			}
		}
	}
	return encodeResponse(op, resp)
}

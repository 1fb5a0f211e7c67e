package server

// Wire extension: cluster-membership ops 18–19. Like the traced
// variants, the signing ops and the QoS tags, the extension is
// append-only — every frame an old peer can produce or parse stays
// byte-identical, and an old server answers the new ops with
// CodeProtocol instead of misparsing them, so a mixed-version fleet
// degrades to static membership, never to corruption.
//
// OpJoin registers a backend with a membership-aware server (the
// montsyslb balancer): the body names the address the backend serves
// on and its failure-domain (zone) label. OpGoodbye deregisters an
// address — a draining backend says goodbye *before* it stops
// accepting, so the balancer reroutes new work while in-flight work
// finishes, instead of discovering the drain one failed probe later.
// Both answer with the post-change member count in the standard
// single-value response body, and both are idempotent: re-joining an
// address already in the pool (same zone) and saying goodbye to an
// address already gone are no-ops, so registration loops can retry
// blindly.
//
// The ops are control plane, not service traffic: their opTable rows
// declare no QoS tag (they must keep working while tenants are
// throttled) and no trace block, and mark them inline — answered on the
// read loop without an admission slot. Only a forwarding server runs
// them, on its Forwarder's Join and Goodbye; an engine server —
// montsysd itself — answers CodeProtocol, as does an old balancer.

import (
	"context"
	"fmt"
	"math/big"

	"repro/internal/errs"
)

// maxMemberField bounds the addr and zone strings in a membership
// body, so a hostile frame cannot balloon decode allocations or the
// balancer's member table.
const maxMemberField = 256

// memberBody is the decoded body of a membership op: the backend
// address being registered or deregistered, and (OpJoin only) its
// zone label.
type memberBody struct {
	addr string
	zone string
}

// memberAddr decodes a membership address, enforcing the field cap.
func (d *decoder) memberAddr() (*memberBody, error) {
	addr, err := d.string()
	if err != nil {
		return nil, err
	}
	if len(addr) == 0 || len(addr) > maxMemberField {
		return nil, fmt.Errorf("server: member address of %d bytes outside [1, %d]: %w",
			len(addr), maxMemberField, errs.ErrProtocol)
	}
	return &memberBody{addr: addr}, nil
}

// joinBody is OpJoin's body: addr string ‖ zone string.
var joinBody = bodyCodec{
	enc: func(b []byte, req *request) []byte {
		b = appendString(b, req.member.addr)
		return appendString(b, req.member.zone)
	},
	dec: func(b []byte, req *request) error {
		d := decoder{b}
		m, err := d.memberAddr()
		if err != nil {
			return err
		}
		if m.zone, err = d.string(); err != nil {
			return err
		}
		if len(m.zone) > maxMemberField {
			return fmt.Errorf("server: member zone of %d bytes exceeds limit %d: %w",
				len(m.zone), maxMemberField, errs.ErrProtocol)
		}
		req.member = m
		return d.done()
	},
}

// goodbyeBody is OpGoodbye's body: addr string.
var goodbyeBody = bodyCodec{
	enc: func(b []byte, req *request) []byte {
		return appendString(b, req.member.addr)
	},
	dec: func(b []byte, req *request) (err error) {
		d := decoder{b}
		if req.member, err = d.memberAddr(); err != nil {
			return err
		}
		return d.done()
	},
}

// join and goodbye are the membership rows' Forwarder calls; both
// answer the member count after the change.
func (s *Server) join(ctx context.Context, req *request) *response {
	if s.fwd == nil {
		return unsupported(req.op)
	}
	n, err := s.fwd.Join(ctx, req.member.addr, req.member.zone)
	return result(big.NewInt(int64(n)), err)
}

func (s *Server) goodbye(ctx context.Context, req *request) *response {
	if s.fwd == nil {
		return unsupported(req.op)
	}
	n, err := s.fwd.Goodbye(ctx, req.member.addr)
	return result(big.NewInt(int64(n)), err)
}

package server

// Forwarding: a server that answers by handing requests on instead of
// executing them — the montsyslb balancer. It decodes every request
// exactly as an engine server does, so there is one parser and one
// accept/reject set, and a hostile body is refused at the front door
// instead of reaching a pooled backend connection. It then hands the
// body bytes on unchanged, keyed by the routing key the op's row
// declares, and the backend's answer — code, message and body — goes
// back to the caller without being decoded. Only the header is stamped
// afresh per attempt (id, remaining deadline, child trace span, QoS
// identity), by the same client path the typed calls take.

import (
	"context"
	"fmt"

	"repro/internal/cryptosvc"
	"repro/internal/errs"
)

// Forwarder is what a forwarding server runs on: the cluster balancer.
// Forward carries every op but the inline ones; ping is answered by
// the forwarding server itself, and the membership ops by Join and
// Goodbye. Implementations must be safe for concurrent use, and Join
// and Goodbye idempotent: Join of a present member and Goodbye of an
// absent one succeed without effect.
type Forwarder interface {
	// Forward sends r to a backend. A non-nil Reply is a backend's
	// answer and reaches the caller verbatim, whatever its code; the
	// error is then set exactly when that code is not OK. A nil Reply
	// means no backend answered, and the error says why.
	Forward(ctx context.Context, r Routed) (*Reply, error)
	// Join adds (or re-labels) a backend and returns the member count
	// after the change.
	Join(ctx context.Context, addr, zone string) (members int, err error)
	// Goodbye removes a backend and returns the member count after the
	// change.
	Goodbye(ctx context.Context, addr string) (members int, err error)
}

// Routed is a decoded request as a Forwarder receives it.
type Routed struct {
	Op Op // base op
	// Key is the rendezvous-hash routing key the op's row declares:
	// the modulus of a compute op, a key handle of a signing op, nil
	// when there is none (keygen, an empty batch).
	Key       []byte
	KeyHandle bool   // Key is a signing key handle, not a modulus
	Body      []byte // the body after the header blocks, as the client encoded it
}

// Reply is a server's answer to a forwarded request, undecoded.
type Reply struct {
	Code Code
	Body []byte // after the code byte: the OK values or the error message
}

// DefaultHandlerInflight is NewForwardingServer's admission bound:
// a Forwarder has no worker count to derive one from (engines get
// 4×workers).
const DefaultHandlerInflight = 256

// NewForwardingServer serves the wire protocol in front of a Forwarder
// — montsyslb's front door. The default admission bound is
// DefaultHandlerInflight; tune it with WithMaxInflight.
func NewForwardingServer(f Forwarder, opts ...Option) (*Server, error) {
	if f == nil {
		return nil, fmt.Errorf("server: nil forwarder")
	}
	return newServer(&Server{fwd: f}, DefaultHandlerInflight, opts)
}

// forward hands req on with its body bytes and its row's routing key,
// and answers with the reply verbatim; a request no backend answered
// fails with the Forwarder's error.
func (s *Server) forward(ctx context.Context, req *request) *response {
	r := Routed{Op: req.op, Body: req.body}
	if route := opTable[req.op].route; route != nil {
		r.Key, r.KeyHandle = route(req)
	}
	rep, err := s.fwd.Forward(ctx, r)
	if rep == nil {
		return failure(err)
	}
	return &response{code: rep.Code, body: rep.Body}
}

// Forward sends one request whose body is already encoded — a body a
// forwarding server decoded and hands on — and returns the server's
// answer undecoded. Each attempt stamps id, deadline, trace context
// and QoS identity exactly as the typed calls do, and the retry policy
// is theirs too. A non-nil Reply is the last answer, whatever its
// code, with the error set when that code is not OK; a nil Reply
// means no answer arrived.
func (c *Client) Forward(ctx context.Context, op Op, body []byte) (*Reply, error) {
	if op == 0 || wireOps[op].base != op || body == nil {
		return nil, fmt.Errorf("server: forward of op byte %d: %w", op, errs.ErrProtocol)
	}
	resp, err := c.call(ctx, &request{op: op, body: body})
	if resp == nil {
		return nil, err
	}
	return &Reply{Code: resp.code, Body: resp.body}, err
}

// routeKey yields a decoded request's routing key, and whether it is a
// signing key handle.
type routeKey func(*request) (key []byte, handle bool)

// modulusKey routes the compute ops by their (first) modulus — what a
// backend's Montgomery-context cache is keyed by, so repeat-modulus
// traffic lands on a warm cache. Batches overwhelmingly share one.
func modulusKey(req *request) ([]byte, bool) {
	if len(req.jobs) == 0 {
		return nil, false
	}
	return req.jobs[0].n.Bytes(), false
}

// The signing ops route by key handle, a fingerprint of the key and
// never the private material itself, so every request for one key —
// signatures and verifies alike — meets the same warm contexts.

func signRSAKey(req *request) ([]byte, bool) {
	return keyHandle(cryptosvc.RSAKeyHandle(req.crypto.key.N))
}

func verifyRSAKey(req *request) ([]byte, bool) {
	return keyHandle(cryptosvc.RSAKeyHandle(req.crypto.n))
}

func signECDSAKey(req *request) ([]byte, bool) {
	return keyHandle(cryptosvc.ECDSAKeyHandle(req.crypto.curve, req.crypto.d))
}

// verifyECDSAKey routes a batch by its first item's public point.
func verifyECDSAKey(req *request) ([]byte, bool) {
	cb := req.crypto
	if len(cb.items) == 0 {
		return nil, false
	}
	return keyHandle(cryptosvc.ECDSAKeyHandle(cb.curve, cb.items[0].Qx, cb.items[0].Qy))
}

func keyHandle(h []byte) ([]byte, bool) { return h, h != nil }

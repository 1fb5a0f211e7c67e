package server

import (
	"context"
	"fmt"
)

// Op identifies a request operation. Values are a network ABI — append
// only. Only base ops are named here: the wire bytes of their traced and
// tenant-tagged variants come from opTable, which is the single source
// of every op's wire bytes, codec and dispatch.
type Op uint8

// Base ops. OpMont is one raw Montgomery product X·Y·R⁻¹ mod 2N;
// OpModExp one modular exponentiation; OpBatchModExp an order-preserving
// batch of exponentiations answered with per-item codes. OpPing is the
// health check: OK while serving, its value the server's current
// in-flight count (a cheap load signal for balancers), CodeDraining once
// a graceful shutdown has begun. The signing ops are described in
// proto_crypto.go, the membership ops in proto_member.go.
//
// OpKeygenRSA is reproduction/test-only: the key derives entirely from
// the request's 64-bit seed (deterministic, hence idempotent and
// retryable — and at most 64 bits of entropy, with seed and private key
// both on the wire). Production keys are generated locally with
// cryptosvc.Service.KeygenRSACrypto and never minted remotely.
const (
	OpMont        Op = 1
	OpModExp      Op = 2
	OpBatchModExp Op = 3
	OpPing        Op = 4

	OpKeygenRSA        Op = 8
	OpSignRSA          Op = 9
	OpVerifyRSA        Op = 10
	OpSignECDSA        Op = 11
	OpVerifyECDSABatch Op = 12

	OpJoin    Op = 18
	OpGoodbye Op = 19
)

// OpQoSOffset is the distance from a wire op byte (plain or traced) to
// its tenant-tagged twin, so tagging composes with tracing without
// another doubling of the op space (modexp 2 → 66, traced modexp 6 →
// 70). Bytes 20–63 stay free for future base and traced ops.
const OpQoSOffset Op = 64

// perItem marks an OK response body that answers per item: uint32 count
// ‖ count × (code ‖ big on OK, message else), so one bad item does not
// poison its batch.
const perItem = -1

// opDesc is one row of the op table: everything the codec, the server,
// the client and a forwarding server need to know about a base op.
type opDesc struct {
	name   string    // metric label; "" marks a byte that is no base op
	traced Op        // wire byte of the traced variant, 0 = none
	tagged bool      // every variant has a tenant-tagged twin at +OpQoSOffset
	inline bool      // answered on the read loop: no admission slot, no QoS charge
	body   bodyCodec // request body after the header blocks
	values int       // OK response: this many bigs, or perItem
	route  routeKey  // HRW routing key a forwarding server hands on; nil = none
	serve  func(*Server, context.Context, *request) *response
}

// opTable is the wire op registry, indexed by base op.
//
// Traced variants carry a trace block (16-byte trace id ‖ 8-byte parent
// span ‖ flags byte, bit 0 = sampled) between the deadline and the body.
// They are separate op bytes rather than a header flag so the extension
// stays append-only: an old peer rejects the unknown byte with
// CodeProtocol instead of misparsing operands, and clients only send
// them for sampled requests. Ping and the membership ops are neither
// traced nor tagged: they are health probes and control plane, answered
// inline so they keep working exactly when the data plane is saturated
// or every tenant is throttled.
//
// An engine server runs a request through its row's serve function. A
// forwarding server (forward.go) runs only the inline rows' and hands
// every other request's body on unchanged, routed by the row's route
// key, so an op added here needs no code in the balancer.
//
// Every op is idempotent, and every new row must keep it so: the
// compute ops and verifies are pure, keygen and ECDSA signing are
// deterministic under their seeds, RSA blinds never change the
// signature, and join/goodbye are idempotent by contract (see
// Forwarder). The client relies on it to retry an ambiguous
// failure — request written, answer lost — like any other.
var opTable = [...]opDesc{
	OpMont: {name: "mont", traced: 5, tagged: true,
		body: tripleBody, values: 1, route: modulusKey, serve: (*Server).mont},
	OpModExp: {name: "modexp", traced: 6, tagged: true,
		body: tripleBody, values: 1, route: modulusKey, serve: (*Server).modExp},
	OpBatchModExp: {name: "batch_modexp", traced: 7, tagged: true,
		body: tripleBatchBody, values: perItem, route: modulusKey, serve: (*Server).batchModExp},
	OpPing: {name: "ping", inline: true,
		body: noBody, values: 1, serve: (*Server).ping},

	OpKeygenRSA: {name: "keygen_rsa", traced: 13, tagged: true,
		body: keygenRSABody, values: 8, serve: (*Server).keygenRSA},
	OpSignRSA: {name: "sign_rsa", traced: 14, tagged: true,
		body: signRSABody, values: 1, route: signRSAKey, serve: (*Server).signRSA},
	OpVerifyRSA: {name: "verify_rsa", traced: 15, tagged: true,
		body: verifyRSABody, values: 1, route: verifyRSAKey, serve: (*Server).verifyRSA},
	OpSignECDSA: {name: "sign_ecdsa", traced: 16, tagged: true,
		body: signECDSABody, values: 2, route: signECDSAKey, serve: (*Server).signECDSA},
	OpVerifyECDSABatch: {name: "verify_ecdsa_batch", traced: 17, tagged: true,
		body: verifyECDSABatchBody, values: perItem, route: verifyECDSAKey, serve: (*Server).verifyECDSABatch},

	OpJoin: {name: "join", inline: true,
		body: joinBody, values: 1, serve: (*Server).join},
	OpGoodbye: {name: "goodbye", inline: true,
		body: goodbyeBody, values: 1, serve: (*Server).goodbye},
}

// wireOp is what a request's op byte declares: its base op, and whether
// a trace block and a QoS block follow the header.
type wireOp struct {
	base           Op
	traced, tagged bool
}

// wireOps maps every op byte to its declaration, built once from
// opTable. A zero base marks a byte no row declares; decoding rejects
// it with CodeProtocol.
var wireOps = func() (t [256]wireOp) {
	declare := func(b Op, w wireOp) {
		if t[b].base != 0 {
			panic(fmt.Sprintf("server: op byte %d declared by %s and %s",
				b, opTable[t[b].base].name, opTable[w.base].name))
		}
		t[b] = w
	}
	for i, d := range opTable {
		if d.name == "" {
			continue
		}
		base := Op(i)
		declare(base, wireOp{base: base})
		if d.traced != 0 {
			declare(d.traced, wireOp{base: base, traced: true})
		}
		if d.tagged {
			declare(base+OpQoSOffset, wireOp{base: base, tagged: true})
			if d.traced != 0 {
				declare(d.traced+OpQoSOffset, wireOp{base: base, traced: true, tagged: true})
			}
		}
	}
	return t
}()

// String names an op the way the server's metrics label it. Every
// variant of a base op shares its name, so tracing and tagging never
// split a series.
func (o Op) String() string {
	if w := wireOps[o]; w.base != 0 {
		return opTable[w.base].name
	}
	return "unknown"
}

// PerItem reports whether the op answers per item — a batch with one
// code per element. A balancer fails such ops over as a unit and never
// hedges them: racing a whole batch doubles real work, not just tail
// risk.
func (o Op) PerItem() bool {
	w := wireOps[o]
	return w.base != 0 && opTable[w.base].values == perItem
}

package server

// Property tests generated from the op table: every op × every variant
// its row declares round-trips byte-exactly, rejects truncation and
// trailing bytes, and no undeclared op byte decodes. A new row without
// a sample body in sampleBodies fails tableRequests, so adding an op
// cannot skip these tests.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/big"
	"runtime"
	"testing"
	"time"

	"repro/internal/cryptosvc"
	"repro/internal/errs"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/rsa"
)

// sampleBodies holds one valid request body per base op.
func sampleBodies() map[Op]request {
	n := big.NewInt(0xfff1)
	j := triple{n: n, a: big.NewInt(2), b: big.NewInt(3)}
	key := &rsa.PrivateKey{
		PublicKey: rsa.PublicKey{N: n, E: big.NewInt(3)},
		D:         big.NewInt(5), P: big.NewInt(0x3d), Q: big.NewInt(0x43),
		DP: big.NewInt(7), DQ: big.NewInt(11), QInv: big.NewInt(13),
	}
	item := cryptosvc.ECDSAVerifyItem{Qx: big.NewInt(1), Qy: big.NewInt(2),
		R: big.NewInt(3), S: big.NewInt(4), Digest: big.NewInt(5)}
	return map[Op]request{
		OpMont:        {jobs: []triple{j}},
		OpModExp:      {jobs: []triple{j}, deadline: time.Unix(2, 0)},
		OpBatchModExp: {jobs: []triple{j, j}},
		OpPing:        {},
		OpKeygenRSA:   {crypto: &cryptoBody{bits: 512, seed: 42}},
		OpSignRSA:     {crypto: &cryptoBody{key: key, digest: big.NewInt(99)}},
		OpVerifyRSA: {crypto: &cryptoBody{
			n: n, e: big.NewInt(65537), digest: big.NewInt(99), sig: big.NewInt(7)}},
		OpSignECDSA: {crypto: &cryptoBody{
			curve: 1, d: big.NewInt(0x5eed), digest: big.NewInt(99), seed: 9}},
		OpVerifyECDSABatch: {crypto: &cryptoBody{
			curve: 1, items: []cryptosvc.ECDSAVerifyItem{item, item}}},
		OpJoin:    {member: &memberBody{addr: "b1:9001", zone: "eu-1"}},
		OpGoodbye: {member: &memberBody{addr: "b1:9001"}},
	}
}

// tableOps lists the base ops opTable declares, in op order.
func tableOps() []Op {
	var ops []Op
	for i, d := range opTable {
		if d.name != "" {
			ops = append(ops, Op(i))
		}
	}
	return ops
}

// tableRequest is one op × variant sample.
type tableRequest struct {
	name           string
	req            *request
	traced, tagged bool
}

// tableRequests builds every op × {plain, traced, tagged,
// traced+tagged} variant its row declares, from sampleBodies.
func tableRequests(tb testing.TB) []tableRequest {
	tb.Helper()
	bodies := sampleBodies()
	tc := obs.TraceContext{Sampled: true}
	tc.TraceID[0], tc.SpanID[0] = 0xab, 0xcd
	var out []tableRequest
	for id, op := range tableOps() {
		body, ok := bodies[op]
		if !ok {
			tb.Fatalf("op %s has no sample body in sampleBodies", op)
		}
		d := opTable[op]
		for _, traced := range []bool{false, true} {
			for _, tagged := range []bool{false, true} {
				if (traced && d.traced == 0) || (tagged && !d.tagged) {
					continue
				}
				req := body
				req.op, req.id = op, uint64(id+1)
				name := op.String()
				if traced {
					req.tc = tc
					name += "/traced"
				}
				if tagged {
					req.tenant, req.class = "acme", qos.Batch
					name += "/tagged"
				}
				out = append(out, tableRequest{name, &req, traced, tagged})
			}
		}
	}
	return out
}

// TestTableFramesRoundTrip: every declared variant encodes to the wire
// byte its row declares, decodes back to its base op with its blocks
// intact, re-encodes to the same bytes, and fails with ErrProtocol on
// every strict prefix and on one trailing byte.
func TestTableFramesRoundTrip(t *testing.T) {
	for _, tr := range tableRequests(t) {
		t.Run(tr.name, func(t *testing.T) {
			frame := encodeRequest(tr.req)
			if got, want := wireOps[frame[1]], (wireOp{tr.req.op, tr.traced, tr.tagged}); got != want {
				t.Fatalf("op byte %d declares %+v, want %+v", frame[1], got, want)
			}
			back, err := decodeRequest(frame)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if back.op != tr.req.op || back.tc.Sampled != tr.traced || (back.tenant != "") != tr.tagged {
				t.Fatalf("decoded op %s traced=%v tenant=%q", back.op, back.tc.Sampled, back.tenant)
			}
			if again := encodeRequest(back); !bytes.Equal(again, frame) {
				t.Fatalf("re-encode drifted:\n got  %x\n want %x", again, frame)
			}
			for i := 0; i < len(frame); i++ {
				if _, err := decodeRequest(frame[:i]); !errors.Is(err, errs.ErrProtocol) {
					t.Fatalf("%d-byte prefix of %d: err = %v, want ErrProtocol", i, len(frame), err)
				}
			}
			if _, err := decodeRequest(append(frame, 0)); !errors.Is(err, errs.ErrProtocol) {
				t.Fatalf("trailing byte: err = %v, want ErrProtocol", err)
			}
		})
	}
}

// TestUndeclaredOpBytesRejected: an op byte no row declares never
// decodes, whatever follows the header — in particular the tagged
// ping, join and goodbye bytes (68, 82, 83), which no encoder sends.
func TestUndeclaredOpBytesRejected(t *testing.T) {
	produced := map[byte]bool{}
	var tails [][]byte
	qosBlock := encodeQoSBlock(nil, &request{tenant: "acme", class: qos.Batch})
	traceBlock := append(make([]byte, 24), traceFlagSampled)
	for _, tr := range tableRequests(t) {
		frame := encodeRequest(tr.req)
		produced[frame[1]] = true
		if tr.traced || tr.tagged {
			continue
		}
		// Every body, bare and behind each block combination a tagged
		// or traced byte would announce.
		body := frame[18:]
		for _, pre := range [][]byte{nil, qosBlock, traceBlock, append(append([]byte(nil), qosBlock...), traceBlock...)} {
			tails = append(tails, append(append([]byte(nil), pre...), body...))
		}
	}
	for _, b := range []byte{68, 82, 83} {
		if produced[b] {
			t.Fatalf("op byte %d is declared; ping, join and goodbye take no tag", b)
		}
	}
	for b := 0; b < 256; b++ {
		decoded := false
		for _, tail := range tails {
			frame := append([]byte{ProtoVersion, byte(b)}, make([]byte, 16)...)
			_, err := decodeRequest(append(frame, tail...))
			if err == nil {
				decoded = true
			} else if !errors.Is(err, errs.ErrProtocol) {
				t.Fatalf("op byte %d: err = %v, want ErrProtocol", b, err)
			}
		}
		if decoded != produced[byte(b)] {
			t.Errorf("op byte %d: decodes=%v, declared=%v", b, decoded, produced[byte(b)])
		}
	}
}

// decodeAllocBytes reports the heap bytes one call of f allocates,
// averaged over a few runs.
func decodeAllocBytes(f func()) uint64 {
	const runs = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// hostileAllocLimit bounds what decoding a header-only frame that
// declares maxBatch items may allocate: a constant, not per item.
const hostileAllocLimit = 64 << 10

// TestHostileBatchCountRequest: a request frame whose batch header
// declares maxBatch items but carries none is rejected with ErrProtocol
// before the item slice is allocated, for both batch-shaped requests.
func TestHostileBatchCountRequest(t *testing.T) {
	header := func(op Op) []byte {
		return append([]byte{ProtoVersion, byte(op)}, make([]byte, 16)...)
	}
	cases := map[string][]byte{
		"batch_modexp":       binary.BigEndian.AppendUint32(header(OpBatchModExp), maxBatch),
		"verify_ecdsa_batch": binary.BigEndian.AppendUint32(append(header(OpVerifyECDSABatch), 1), maxBatch),
	}
	for name, frame := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := decodeRequest(frame); !errors.Is(err, errs.ErrProtocol) {
				t.Fatalf("err = %v, want ErrProtocol", err)
			}
			if n := decodeAllocBytes(func() { decodeRequest(frame) }); n > hostileAllocLimit {
				t.Fatalf("%d-byte frame allocated %d bytes per decode (limit %d)", len(frame), n, hostileAllocLimit)
			}
		})
	}
}

// TestHostileBatchCountResponse: the same guard on the client side — an
// OK per-item response declaring maxBatch items with no bytes for them.
func TestHostileBatchCountResponse(t *testing.T) {
	payload := binary.BigEndian.AppendUint32(
		append([]byte{ProtoVersion}, make([]byte, 8+1)...), maxBatch) // id 0, CodeOK
	for _, op := range tableOps() {
		if opTable[op].values != perItem {
			continue
		}
		t.Run(op.String(), func(t *testing.T) {
			if _, err := decodeResponse(op, payload); !errors.Is(err, errs.ErrProtocol) {
				t.Fatalf("err = %v, want ErrProtocol", err)
			}
			if n := decodeAllocBytes(func() { decodeResponse(op, payload) }); n > hostileAllocLimit {
				t.Fatalf("%d-byte response allocated %d bytes per decode (limit %d)", len(payload), n, hostileAllocLimit)
			}
		})
	}
}

// opResponse is a response and the op whose shape it has.
type opResponse struct {
	op   Op
	resp *response
}

// sampleResponses builds one OK response per op in its row's shape,
// plus an error response, for the response fuzz seeds.
func sampleResponses() []opResponse {
	var out []opResponse
	for i, op := range tableOps() {
		ok := &response{id: uint64(i + 1), code: CodeOK}
		if n := opTable[op].values; n == perItem {
			ok.codes = []Code{CodeOK, CodeDeadline}
			ok.msgs = []string{"", "deadline exceeded"}
			ok.values = []*big.Int{big.NewInt(7), nil}
		} else {
			for v := 0; v < n; v++ {
				ok.values = append(ok.values, big.NewInt(int64(v+40)))
			}
		}
		out = append(out, opResponse{op, ok})
	}
	return append(out, opResponse{OpModExp,
		&response{id: 99, code: CodeOverloaded, msg: "in-flight limit reached"}})
}

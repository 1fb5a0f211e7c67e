package server

// Golden frames for the signing ops. Like TestLegacyFramesByteIdentical
// and TestQoSFramesByteIdentical, the expected bytes are a network ABI:
// if any of them needs regenerating, the wire format broke.

import (
	"bytes"
	"encoding/hex"
	"math/big"
	"testing"
	"time"

	"repro/internal/cryptosvc"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/rsa"
)

// goldenTrace is the trace context every golden traced frame carries.
func goldenTrace() obs.TraceContext {
	tc := obs.TraceContext{Sampled: true}
	tc.TraceID[0], tc.SpanID[0] = 0xAA, 0xBB
	return tc
}

// TestSigningFramesByteIdentical pins the request bytes of every
// signing op, plus traced, tagged, and traced+tagged variants, and
// checks each golden frame decodes and re-encodes to itself.
func TestSigningFramesByteIdentical(t *testing.T) {
	key := &rsa.PrivateKey{
		PublicKey: rsa.PublicKey{N: big.NewInt(0xF1), E: big.NewInt(3)},
		D:         big.NewInt(0xA1),
		P:         big.NewInt(0x0D), Q: big.NewInt(0x13),
		DP: big.NewInt(5), DQ: big.NewInt(7), QInv: big.NewInt(2),
	}
	noCRT := &rsa.PrivateKey{
		PublicKey: rsa.PublicKey{N: big.NewInt(0xF1), E: big.NewInt(3)},
		D:         big.NewInt(0xA1),
	}
	item := func(v int64) cryptosvc.ECDSAVerifyItem {
		return cryptosvc.ECDSAVerifyItem{Qx: big.NewInt(v), Qy: big.NewInt(v + 1),
			R: big.NewInt(v + 2), S: big.NewInt(v + 3), Digest: big.NewInt(v + 4)}
	}
	cases := []struct {
		name string
		req  *request
		want string
	}{
		{
			"keygen_rsa",
			&request{op: OpKeygenRSA, id: 1, crypto: &cryptoBody{bits: 512, seed: 42}},
			"0108 0000000000000001 0000000000000000 00000200 000000000000002a",
		},
		{
			"sign_rsa",
			&request{op: OpSignRSA, id: 2, crypto: &cryptoBody{key: key, digest: big.NewInt(0x2A)}},
			"0109 0000000000000002 0000000000000000 00000001f1 0000000103 00000001a1" +
				" 000000010d 0000000113 0000000105 0000000107 0000000102 000000012a",
		},
		{
			// Absent CRT fields travel as zero-length bigs.
			"sign_rsa_no_crt",
			&request{op: OpSignRSA, id: 2, crypto: &cryptoBody{key: noCRT, digest: big.NewInt(0x2A)}},
			"0109 0000000000000002 0000000000000000 00000001f1 0000000103 00000001a1" +
				" 00000000 00000000 00000000 00000000 00000000 000000012a",
		},
		{
			"verify_rsa",
			&request{op: OpVerifyRSA, id: 3, crypto: &cryptoBody{
				n: big.NewInt(0xF1), e: big.NewInt(3), digest: big.NewInt(0x2A), sig: big.NewInt(0x1234)}},
			"010a 0000000000000003 0000000000000000 00000001f1 0000000103 000000012a 000000021234",
		},
		{
			"sign_ecdsa",
			&request{op: OpSignECDSA, id: 4, crypto: &cryptoBody{
				curve: 1, d: big.NewInt(0x5EED), digest: big.NewInt(0x2A), seed: 7}},
			"010b 0000000000000004 0000000000000000 01 000000025eed 000000012a 0000000000000007",
		},
		{
			"verify_ecdsa_batch",
			&request{op: OpVerifyECDSABatch, id: 5, crypto: &cryptoBody{
				curve: 1, items: []cryptosvc.ECDSAVerifyItem{item(1), item(6)}}},
			"010c 0000000000000005 0000000000000000 01 00000002" +
				" 0000000101 0000000102 0000000103 0000000104 0000000105" +
				" 0000000106 0000000107 0000000108 0000000109 000000010a",
		},
		{
			// Traced verify_rsa: op 10 → 15, trace block before the body.
			"verify_rsa_traced",
			&request{op: OpVerifyRSA, id: 6, tc: goldenTrace(), crypto: &cryptoBody{
				n: big.NewInt(0xF1), e: big.NewInt(3), digest: big.NewInt(0x2A), sig: big.NewInt(0x1234)}},
			"010f 0000000000000006 0000000000000000" +
				" aa000000000000000000000000000000 bb00000000000000 01" +
				" 00000001f1 0000000103 000000012a 000000021234",
		},
		{
			// Tagged sign_ecdsa: op 11 → 75, QoS block before the body.
			"sign_ecdsa_tagged",
			&request{op: OpSignECDSA, id: 7, deadline: time.Unix(0, 0x0102030405060708),
				tenant: "acme", class: qos.Batch, crypto: &cryptoBody{
					curve: 1, d: big.NewInt(0x5EED), digest: big.NewInt(0x2A), seed: 7}},
			"014b 0000000000000007 0102030405060708 01 00000004 61636d65" +
				" 01 000000025eed 000000012a 0000000000000007",
		},
		{
			// Traced and tagged verify_ecdsa_batch: op 12 → 17 → 81, QoS
			// block first, then the trace block.
			"verify_ecdsa_batch_traced_tagged",
			&request{op: OpVerifyECDSABatch, id: 8, tc: goldenTrace(),
				tenant: "t", class: qos.BestEffort, crypto: &cryptoBody{
					curve: 2, items: []cryptosvc.ECDSAVerifyItem{item(1)}}},
			"0151 0000000000000008 0000000000000000 02 00000001 74" +
				" aa000000000000000000000000000000 bb00000000000000 01" +
				" 02 00000001 0000000101 0000000102 0000000103 0000000104 0000000105",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := encodeRequest(tc.req)
			want := stripSpaces(tc.want)
			if hex.EncodeToString(got) != want {
				t.Fatalf("request bytes changed:\n got  %x\n want %s", got, want)
			}
			back, err := decodeRequest(got)
			if err != nil {
				t.Fatalf("decode golden frame: %v", err)
			}
			if back.op != tc.req.op || back.id != tc.req.id {
				t.Fatalf("decoded op %d id %d, want op %d id %d", back.op, back.id, tc.req.op, tc.req.id)
			}
			if again := encodeRequest(back); !bytes.Equal(again, got) {
				t.Fatalf("re-encode drifted:\n got  %x\n want %x", again, got)
			}
		})
	}
}

// TestSigningResponsesByteIdentical pins the OK response bodies of
// every signing op, including a verify_ecdsa_batch answer that mixes
// OK verdicts with a per-item error, and checks each decodes and
// re-encodes to itself.
func TestSigningResponsesByteIdentical(t *testing.T) {
	bigs := func(vs ...int64) []*big.Int {
		out := make([]*big.Int, len(vs))
		for i, v := range vs {
			out[i] = big.NewInt(v)
		}
		return out
	}
	cases := []struct {
		name string
		op   Op
		resp *response
		want string
	}{
		{
			"keygen_rsa", OpKeygenRSA,
			&response{id: 1, code: CodeOK, values: bigs(0xF1, 3, 0xA1, 0x0D, 0x13, 5, 7, 2)},
			"01 0000000000000001 00 00000001f1 0000000103 00000001a1 000000010d" +
				" 0000000113 0000000105 0000000107 0000000102",
		},
		{
			"sign_rsa", OpSignRSA,
			&response{id: 2, code: CodeOK, values: bigs(0x1234)},
			"01 0000000000000002 00 000000021234",
		},
		{
			"verify_rsa_true", OpVerifyRSA,
			&response{id: 3, code: CodeOK, values: bigs(1)},
			"01 0000000000000003 00 0000000101",
		},
		{
			"verify_rsa_false", OpVerifyRSA,
			&response{id: 3, code: CodeOK, values: bigs(0)},
			"01 0000000000000003 00 00000000",
		},
		{
			"sign_ecdsa", OpSignECDSA,
			&response{id: 4, code: CodeOK, values: bigs(0x11, 0x22)},
			"01 0000000000000004 00 0000000111 0000000122",
		},
		{
			"verify_ecdsa_batch_mixed", OpVerifyECDSABatch,
			&response{id: 5, code: CodeOK,
				codes:  []Code{CodeOK, CodeOK, CodeBadKey},
				msgs:   []string{"", "", "bad"},
				values: []*big.Int{big.NewInt(1), big.NewInt(0), nil}},
			"01 0000000000000005 00 00000003" +
				" 00 0000000101 00 00000000 0c 00000003 626164",
		},
		{
			"sign_rsa_error", OpSignRSA,
			&response{id: 6, code: CodeBadKey, msg: "bad"},
			"01 0000000000000006 0c 00000003 626164",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := encodeResponse(tc.op, tc.resp)
			want := stripSpaces(tc.want)
			if hex.EncodeToString(got) != want {
				t.Fatalf("response bytes changed:\n got  %x\n want %s", got, want)
			}
			back, err := decodeResponse(tc.op, got)
			if err != nil {
				t.Fatalf("decode golden response: %v", err)
			}
			if again := encodeResponse(tc.op, back); !bytes.Equal(again, got) {
				t.Fatalf("re-encode drifted:\n got  %x\n want %x", again, got)
			}
		})
	}
}

package server

import (
	"context"
	"encoding/hex"
	"errors"
	"math/big"
	"testing"

	"repro/internal/cryptosvc"
	"repro/internal/ecc"
	"repro/internal/engine"
	"repro/internal/errs"
	"repro/internal/kits"
	"repro/internal/obs"
)

// cryptoTestSetup boots a signing-capable server on loopback and a
// client against it.
func cryptoTestSetup(t *testing.T, srvOpts ...Option) (*Client, *engine.Engine) {
	t.Helper()
	_, eng, addr := startServer(t,
		[]engine.Option{engine.WithWorkers(2), engine.WithKit(kits.CIOS)}, srvOpts)
	cl := Dial(addr)
	t.Cleanup(func() { cl.Close() })
	return cl, eng
}

// TestCryptoOpsRoundTrip drives every signing op through the wire:
// keygen, RSA sign + verify (true and false), ECDSA sign + batch
// verify — and checks the answers against independent math/big
// computation.
func TestCryptoOpsRoundTrip(t *testing.T) {
	cl, _ := cryptoTestSetup(t)
	ctx := context.Background()

	key, err := cl.KeygenRSA(ctx, 256, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := key.Validate(); err != nil {
		t.Fatalf("wire keygen produced inconsistent key: %v", err)
	}
	if key.P == nil || key.QInv == nil {
		t.Fatal("CRT components lost on the wire")
	}

	digest := big.NewInt(0xD16E57)
	sig, err := cl.SignRSA(ctx, key, digest)
	if err != nil {
		t.Fatal(err)
	}
	// Independent check, no server involved.
	if got := new(big.Int).Exp(sig, key.E, key.N); got.Cmp(new(big.Int).Mod(digest, key.N)) != 0 {
		t.Fatal("wire signature does not verify against math/big")
	}
	ok, err := cl.VerifyRSA(ctx, key.N, key.E, digest, sig)
	if err != nil || !ok {
		t.Fatalf("VerifyRSA(valid) = (%v, %v)", ok, err)
	}
	bad := new(big.Int).Add(sig, big.NewInt(1))
	ok, err = cl.VerifyRSA(ctx, key.N, key.E, digest, bad)
	if err != nil || ok {
		t.Fatalf("VerifyRSA(tampered) = (%v, %v), want (false, nil)", ok, err)
	}

	// ECDSA over the wire: deterministic under the seed.
	d := big.NewInt(0xC0FFEE)
	r1, s1, err := cl.SignECDSA(ctx, cryptosvc.CurveP256, d, digest, 7)
	if err != nil {
		t.Fatal(err)
	}
	r2, s2, err := cl.SignECDSA(ctx, cryptosvc.CurveP256, d, digest, 7)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cmp(r2) != 0 || s1.Cmp(s2) != 0 {
		t.Fatal("ECDSA sign not deterministic over the wire")
	}

	curve, err := ecc.P256()
	if err != nil {
		t.Fatal(err)
	}
	pt, err := curve.ScalarBaseMult(d)
	if err != nil {
		t.Fatal(err)
	}
	qx, qy, _ := curve.Affine(pt)
	res, err := cl.VerifyECDSABatch(ctx, cryptosvc.CurveP256, []cryptosvc.ECDSAVerifyItem{
		{Qx: qx, Qy: qy, R: r1, S: s1, Digest: digest},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || !res[0].OK || res[0].Err != nil {
		t.Fatalf("batch verify of a wire signature: %+v", res)
	}
}

// TestCryptoKeygenDeterministicOverWire pins the retry-safety property:
// the same (bits, seed) answers the same key.
func TestCryptoKeygenDeterministicOverWire(t *testing.T) {
	cl, _ := cryptoTestSetup(t)
	ctx := context.Background()
	k1, err := cl.KeygenRSA(ctx, 128, 9)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := cl.KeygenRSA(ctx, 128, 9)
	if err != nil {
		t.Fatal(err)
	}
	if k1.N.Cmp(k2.N) != 0 || k1.D.Cmp(k2.D) != 0 {
		t.Fatal("keygen not deterministic over the wire")
	}
}

// TestCryptoErrorCodesSurviveWire checks that every new failure class
// maps onto its sentinel through client → wire → server → wire →
// client, so errors.Is classification matches the in-process service.
func TestCryptoErrorCodesSurviveWire(t *testing.T) {
	cl, eng := cryptoTestSetup(t)
	ctx := context.Background()

	svc := cryptosvc.New(eng)
	key, err := svc.KeygenRSA(ctx, 256, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Bad key material → ErrBadKey.
	mangled := *key
	mangled.QInv = new(big.Int).Add(key.QInv, big.NewInt(1))
	if _, err := cl.SignRSA(ctx, &mangled, big.NewInt(5)); !errors.Is(err, errs.ErrBadKey) {
		t.Fatalf("mangled QInv: got %v, want ErrBadKey", err)
	}
	// Even modulus in the public key → ErrBadKey.
	if _, err := cl.VerifyRSA(ctx, big.NewInt(16), key.E, big.NewInt(5), big.NewInt(3)); !errors.Is(err, errs.ErrBadKey) {
		t.Fatalf("even modulus: got %v, want ErrBadKey", err)
	}
	// Degenerate digest → ErrOperandRange.
	if _, err := cl.SignRSA(ctx, key, big.NewInt(0)); !errors.Is(err, errs.ErrOperandRange) {
		t.Fatalf("zero digest: got %v, want ErrOperandRange", err)
	}
	// Unknown curve → ErrBadKey.
	if _, _, err := cl.SignECDSA(ctx, 99, big.NewInt(5), big.NewInt(7), 1); !errors.Is(err, errs.ErrBadKey) {
		t.Fatalf("unknown curve: got %v, want ErrBadKey", err)
	}
	// An ECDSA digest longer than the group order → ErrOperandRange.
	long := new(big.Int).Lsh(big.NewInt(1), 300)
	if _, _, err := cl.SignECDSA(ctx, cryptosvc.CurveP256, big.NewInt(5), long, 1); !errors.Is(err, errs.ErrOperandRange) {
		t.Fatalf("301-bit digest on P-256: got %v, want ErrOperandRange", err)
	}
	// Bad keygen parameters → ErrOperandRange.
	if _, err := cl.KeygenRSA(ctx, 15, 1); !errors.Is(err, errs.ErrOperandRange) {
		t.Fatalf("odd bits: got %v, want ErrOperandRange", err)
	}
}

// TestCryptoBatchVerifyPerItemCodes: one malformed item must not
// poison its batch, and per-item sentinels survive the wire.
func TestCryptoBatchVerifyPerItemCodes(t *testing.T) {
	cl, _ := cryptoTestSetup(t)
	ctx := context.Background()

	curve, err := ecc.P256()
	if err != nil {
		t.Fatal(err)
	}
	d := big.NewInt(0x5eed)
	pt, err := curve.ScalarBaseMult(d)
	if err != nil {
		t.Fatal(err)
	}
	qx, qy, _ := curve.Affine(pt)
	digest := big.NewInt(1234)
	r, s, err := cl.SignECDSA(ctx, cryptosvc.CurveP256, d, digest, 3)
	if err != nil {
		t.Fatal(err)
	}

	items := []cryptosvc.ECDSAVerifyItem{
		{Qx: qx, Qy: qy, R: r, S: s, Digest: digest},                       // valid
		{Qx: qx, Qy: qy, R: r, S: s, Digest: big.NewInt(999)},              // wrong digest
		{Qx: big.NewInt(1), Qy: big.NewInt(1), R: r, S: s, Digest: digest}, // off-curve point
		{Qx: qx, Qy: qy, R: big.NewInt(0), S: s, Digest: digest},           // r out of range
	}
	res, err := cl.VerifyECDSABatch(ctx, cryptosvc.CurveP256, items)
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].OK || res[0].Err != nil {
		t.Fatalf("item 0 (valid): %+v", res[0])
	}
	if res[1].OK || res[1].Err != nil {
		t.Fatalf("item 1 (wrong digest): %+v, want OK=false Err=nil", res[1])
	}
	if !errors.Is(res[2].Err, errs.ErrBadKey) {
		t.Fatalf("item 2 (off-curve): err = %v, want ErrBadKey", res[2].Err)
	}
	if res[3].OK || res[3].Err != nil {
		t.Fatalf("item 3 (r=0): %+v, want OK=false Err=nil", res[3])
	}
}

// TestLegacyFramesByteIdentical pins the exact wire bytes of the
// pre-signing ops: if this test ever needs regenerating, the ABI broke.
func TestLegacyFramesByteIdentical(t *testing.T) {
	reqs := []struct {
		name string
		req  *request
		want string
	}{
		{
			"modexp",
			&request{op: OpModExp, id: 7, jobs: []triple{{n: big.NewInt(0xF1), a: big.NewInt(2), b: big.NewInt(10)}}},
			"010200000000000000070000000000000000000000 01f1 0000000102 000000010a",
		},
		{
			"mont",
			&request{op: OpMont, id: 1, jobs: []triple{{n: big.NewInt(0xF1), a: big.NewInt(3), b: big.NewInt(4)}}},
			"010100000000000000010000000000000000000000 01f1 0000000103 0000000104",
		},
		{
			"batch",
			&request{op: OpBatchModExp, id: 2, jobs: []triple{{n: big.NewInt(0xF1), a: big.NewInt(2), b: big.NewInt(3)}}},
			"010300000000000000020000000000000000 00000001 00000001f1 0000000102 0000000103",
		},
		{
			"ping",
			&request{op: OpPing, id: 3},
			"01040000000000000003 0000000000000000",
		},
	}
	for _, tc := range reqs {
		want := tc.want
		wantHex := ""
		for _, c := range want {
			if c != ' ' {
				wantHex += string(c)
			}
		}
		got := hex.EncodeToString(encodeRequest(tc.req))
		if got != wantHex {
			t.Errorf("%s request bytes changed:\n got  %s\n want %s", tc.name, got, wantHex)
		}
	}
	// A traced modexp: trace block between deadline and body.
	tcx := obs.TraceContext{Sampled: true}
	tcx.TraceID[0], tcx.SpanID[0] = 0xAA, 0xBB
	tracedGot := hex.EncodeToString(encodeRequest(&request{
		op: OpModExp, id: 9, tc: tcx,
		jobs: []triple{{n: big.NewInt(0xF1), a: big.NewInt(2), b: big.NewInt(3)}},
	}))
	tracedWant := "010600000000000000090000000000000000" + // ver, op 6, id, no deadline
		"aa000000000000000000000000000000" + "bb00000000000000" + "01" + // trace block
		"00000001f1" + "0000000102" + "0000000103"
	if tracedGot != tracedWant {
		t.Errorf("traced request bytes changed:\n got  %s\n want %s", tracedGot, tracedWant)
	}
	// Responses: OK single value, error, batch.
	respOK := hex.EncodeToString(encodeResponse(OpModExp, &response{id: 7, code: CodeOK, values: []*big.Int{big.NewInt(0x2A)}}))
	if want := "0100000000000000070000000001" + "2a"; respOK != want {
		t.Errorf("OK response bytes changed:\n got  %s\n want %s", respOK, want)
	}
	respErr := hex.EncodeToString(encodeResponse(OpModExp, &response{id: 7, code: CodeOverloaded, msg: "x"}))
	if want := "010000000000000007050000000178"; respErr != want {
		t.Errorf("error response bytes changed:\n got  %s\n want %s", respErr, want)
	}
}

// TestCryptoOpNames pins every row's metric label (a dashboard ABI of
// its own) and traced wire byte, checks that every variant byte maps
// back to its base op and name, and that every op is idempotent.
func TestCryptoOpNames(t *testing.T) {
	want := []struct {
		op     Op
		traced Op
		name   string
	}{
		{OpMont, 5, "mont"},
		{OpModExp, 6, "modexp"},
		{OpBatchModExp, 7, "batch_modexp"},
		{OpPing, 0, "ping"},
		{OpKeygenRSA, 13, "keygen_rsa"},
		{OpSignRSA, 14, "sign_rsa"},
		{OpVerifyRSA, 15, "verify_rsa"},
		{OpSignECDSA, 16, "sign_ecdsa"},
		{OpVerifyECDSABatch, 17, "verify_ecdsa_batch"},
		{OpJoin, 0, "join"},
		{OpGoodbye, 0, "goodbye"},
	}
	if n := len(tableOps()); n != len(want) {
		t.Fatalf("op table has %d rows, this test pins %d", n, len(want))
	}
	for _, w := range want {
		d := opTable[w.op]
		if d.name != w.name || w.op.String() != w.name {
			t.Errorf("op %d named %q (String %q), want %q", w.op, d.name, w.op.String(), w.name)
		}
		if d.traced != w.traced {
			t.Errorf("%s traced byte %d, want %d", w.name, d.traced, w.traced)
		}
		variants := []wireOp{{base: w.op}}
		bytes := []Op{w.op}
		if w.traced != 0 {
			variants = append(variants, wireOp{base: w.op, traced: true})
			bytes = append(bytes, w.traced)
		}
		if d.tagged {
			for i := range bytes {
				variants = append(variants, wireOp{base: w.op, traced: variants[i].traced, tagged: true})
				bytes = append(bytes, bytes[i]+OpQoSOffset)
			}
		}
		for i, b := range bytes {
			if wireOps[b] != variants[i] {
				t.Errorf("byte %d declares %+v, want %+v", b, wireOps[b], variants[i])
			}
			if b.String() != w.name {
				t.Errorf("byte %d named %q, want %q", b, b.String(), w.name)
			}
		}
	}
	if CodeBadKey.String() != "bad_key" {
		t.Errorf("CodeBadKey.String() = %q", CodeBadKey.String())
	}
}

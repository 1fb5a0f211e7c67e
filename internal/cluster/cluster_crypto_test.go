package cluster

import (
	"context"
	"math/big"
	"testing"

	"repro/internal/cryptosvc"
	"repro/internal/engine"
	"repro/internal/kits"
)

func signingBackendOpts() []engine.Option {
	return []engine.Option{engine.WithWorkers(2), engine.WithKit(kits.CIOS)}
}

// A two-backend cluster serves the full signing surface through its
// forwarding front: keygen over the wire, RSA sign/verify, ECDSA sign
// and batch verify, every request but keygen routed by key handle.
func TestClusterSigningRoundTrip(t *testing.T) {
	_, _, a1 := startBackend(t, signingBackendOpts(), nil)
	_, _, a2 := startBackend(t, signingBackendOpts(), nil)
	c, err := New([]string{a1, a2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := front(t, c)
	ctx := context.Background()

	key, err := cl.KeygenRSA(ctx, 256, 42)
	if err != nil {
		t.Fatalf("KeygenRSA: %v", err)
	}
	if err := key.Validate(); err != nil {
		t.Fatalf("generated key invalid: %v", err)
	}

	digest := big.NewInt(0xCAFEBABE)
	sig, err := cl.SignRSA(ctx, key, digest)
	if err != nil {
		t.Fatalf("SignRSA: %v", err)
	}
	if got := new(big.Int).Exp(sig, key.E, key.N); got.Cmp(digest) != 0 {
		t.Fatalf("signature does not verify: sig^e = %v, want %v", got, digest)
	}
	ok, err := cl.VerifyRSA(ctx, key.N, key.E, digest, sig)
	if err != nil || !ok {
		t.Fatalf("VerifyRSA = %v, %v; want true, nil", ok, err)
	}

	cv, err := cryptosvc.CurveByID(cryptosvc.CurveP256)
	if err != nil {
		t.Fatal(err)
	}
	d := big.NewInt(0x1337)
	pt, err := cv.ScalarBaseMult(d)
	if err != nil {
		t.Fatal(err)
	}
	qx, qy, ok := cv.Affine(pt)
	if !ok {
		t.Fatal("public point at infinity")
	}
	r, s, err := cl.SignECDSA(ctx, cryptosvc.CurveP256, d, digest, 7)
	if err != nil {
		t.Fatalf("SignECDSA: %v", err)
	}
	res, err := cl.VerifyECDSABatch(ctx, cryptosvc.CurveP256, []cryptosvc.ECDSAVerifyItem{
		{Qx: qx, Qy: qy, R: r, S: s, Digest: digest},
		{Qx: qx, Qy: qy, R: r, S: s, Digest: big.NewInt(999)}, // wrong digest
	})
	if err != nil {
		t.Fatalf("VerifyECDSABatch: %v", err)
	}
	if !res[0].OK || res[0].Err != nil {
		t.Errorf("item 0 = %+v, want OK", res[0])
	}
	if res[1].OK || res[1].Err != nil {
		t.Errorf("item 1 = %+v, want clean false", res[1])
	}

	if got := c.met.keyhandleReqs.Value(); got != 4 {
		t.Errorf("keyhandle_requests_total = %d, want exactly 4 (sign, verify, ecdsa sign, batch; keygen has no key)", got)
	}
}

// Repeated signs under one key ride the affinity plane: every request
// carries the same key handle, so (with both backends healthy) they all
// land on the key's HRW home.
func TestClusterSignKeyHandleAffinity(t *testing.T) {
	_, e1, a1 := startBackend(t, signingBackendOpts(), nil)
	_, e2, a2 := startBackend(t, signingBackendOpts(), nil)
	c, err := New([]string{a1, a2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := front(t, c)
	ctx := context.Background()

	key, err := cl.KeygenRSA(ctx, 256, 99)
	if err != nil {
		t.Fatal(err)
	}
	before := c.met.affinityHits.Value()
	const signs = 6
	for i := 0; i < signs; i++ {
		if _, err := cl.SignRSA(ctx, key, big.NewInt(int64(1000+i))); err != nil {
			t.Fatalf("sign %d: %v", i, err)
		}
	}
	if got := c.met.affinityHits.Value() - before; got < signs {
		t.Errorf("affinity hits during signing = %d, want >= %d", got, signs)
	}
	// All the CRT exponentiations for this key warmed exactly one
	// backend's engine (the other may have served only the keygen).
	s1, s2 := e1.Stats(), e2.Stats()
	if s1.Completed > 0 && s2.Completed > 0 {
		t.Logf("note: both engines saw jobs (%d/%d) — keygen and signs split", s1.Completed, s2.Completed)
	}
	if s1.Completed == 0 && s2.Completed == 0 {
		t.Error("neither engine saw any jobs")
	}
}

// Signing fails over: with one backend drained mid-run, signs keep
// answering from the survivor and every signature stays valid.
func TestClusterSignFailover(t *testing.T) {
	srv1, _, a1 := startBackend(t, signingBackendOpts(), nil)
	_, _, a2 := startBackend(t, signingBackendOpts(), nil)
	c, err := New([]string{a1, a2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := front(t, c)
	ctx := context.Background()

	key, err := cl.KeygenRSA(ctx, 256, 7)
	if err != nil {
		t.Fatal(err)
	}
	sctx, cancel := context.WithCancel(ctx)
	cancel() // immediate: Shutdown begins draining and returns
	srv1.Shutdown(sctx)

	for i := 0; i < 8; i++ {
		digest := big.NewInt(int64(0xD000 + i))
		sig, err := cl.SignRSA(ctx, key, digest)
		if err != nil {
			t.Fatalf("sign %d after drain: %v", i, err)
		}
		if got := new(big.Int).Exp(sig, key.E, key.N); got.Cmp(digest) != 0 {
			t.Fatalf("sign %d after drain: invalid signature", i)
		}
	}
}

package montsys

// Cross-stack integration tests: whole-system scenarios wired through
// the public façade and the application packages together, the way a
// downstream user would compose them.

import (
	"context"
	"crypto/sha256"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/cryptosvc"
	"repro/internal/engine"
	"repro/internal/kits"
	"repro/internal/rsa"
	"repro/internal/sca"
)

// A hybrid protocol exchange: RSA-encrypt a session value, ECDSA-sign
// the ciphertext's SHA-256 digest with the signing service, verify and
// decrypt on the other side — every modular operation across both
// cryptosystems running on the reproduced Montgomery core (the paper's
// "device dealing with both types of PKC").
func TestHybridProtocolScenario(t *testing.T) {
	rng := rand.New(rand.NewSource(251))
	eng, err := engine.New(engine.WithKit(kits.Model))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	svc := cryptosvc.New(eng)
	ctx := context.Background()

	// Receiver: RSA key.
	rsaKey, err := rsa.GenerateKey(128, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Sender: ECDSA key on P-256, Q = d·G derived locally.
	curve, err := cryptosvc.CurveByID(cryptosvc.CurveP256)
	if err != nil {
		t.Fatal(err)
	}
	d := new(big.Int).Rand(rng, new(big.Int).Sub(curve.Order, big.NewInt(1)))
	d.Add(d, big.NewInt(1))
	q, err := curve.ScalarBaseMult(d)
	if err != nil {
		t.Fatal(err)
	}
	qx, qy, ok := curve.Affine(q)
	if !ok {
		t.Fatal("public point at infinity")
	}

	// Sender side.
	session := new(big.Int).Rand(rng, rsaKey.N)
	ct, _, err := rsaKey.Encrypt(session, kits.Model)
	if err != nil {
		t.Fatal(err)
	}
	hash := sha256.Sum256(ct.Bytes())
	digest := new(big.Int).SetBytes(hash[:])
	r, s, err := svc.SignECDSA(ctx, cryptosvc.CurveP256, d, digest, 251)
	if err != nil {
		t.Fatal(err)
	}

	// Receiver side.
	res, err := svc.VerifyECDSABatch(ctx, cryptosvc.CurveP256, []cryptosvc.ECDSAVerifyItem{
		{Qx: qx, Qy: qy, R: r, S: s, Digest: digest},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil || !res[0].OK {
		t.Fatalf("signature rejected: ok=%v err=%v", res[0].OK, res[0].Err)
	}
	back, _, err := rsaKey.DecryptCRT(ct, kits.Model)
	if err != nil {
		t.Fatal(err)
	}
	if back.Cmp(session) != 0 {
		t.Fatal("session value corrupted")
	}
}

// The façade's simulated multiplier must agree with the full RSA path:
// encrypt with the model, decrypt step by step with façade Mont calls.
func TestFacadeManualExponentiation(t *testing.T) {
	rng := rand.New(rand.NewSource(252))
	n := big.NewInt(0xD0C5) // odd
	m, err := NewMultiplier(n, WithKit(KitSim))
	if err != nil {
		t.Fatal(err)
	}
	base := new(big.Int).Rand(rng, n)
	exp := big.NewInt(0x1D)

	// Hand-rolled square-and-multiply over façade Mont calls.
	a, err := m.ToMont(base)
	if err != nil {
		t.Fatal(err)
	}
	mr := new(big.Int).Set(a)
	for i := exp.BitLen() - 2; i >= 0; i-- {
		if a, err = m.Mont(a, a); err != nil {
			t.Fatal(err)
		}
		if exp.Bit(i) == 1 {
			if a, err = m.Mont(a, mr); err != nil {
				t.Fatal(err)
			}
		}
	}
	got, err := m.FromMont(a)
	if err != nil {
		t.Fatal(err)
	}
	if want := new(big.Int).Exp(base, exp, n); got.Cmp(want) != 0 {
		t.Fatalf("façade exponentiation: got %s want %s", got, want)
	}
	// Every Mont call above cost exactly 3l+4 simulated cycles.
	if m.Cycles != m.Muls*m.CyclesPerMont() {
		t.Errorf("cycle accounting: %d cycles for %d muls", m.Cycles, m.Muls)
	}
}

// End-to-end SCA story: the multiplier that carried the RSA traffic
// above is timing-flat; the naive baseline is not.
func TestScenarioTimingContrast(t *testing.T) {
	rng := rand.New(rand.NewSource(253))
	n := new(big.Int).SetInt64(0xC001)
	mont, err := sca.MeasureMMMTiming(n, 30, rng)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := sca.MeasureInterleavedTiming(n, 30, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !mont.Constant() {
		t.Error("Montgomery timing not constant")
	}
	if naive.Constant() {
		t.Error("baseline timing unexpectedly constant")
	}
}

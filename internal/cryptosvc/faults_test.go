package cryptosvc

import (
	"context"
	"errors"
	"math/big"
	"testing"

	"repro/internal/engine"
	"repro/internal/errs"
	"repro/internal/faults"
	"repro/internal/kits"
)

// TestCRTSignBellcoreSafety is the chaos gate for the signing path:
// with a deterministic injector corrupting 50% of all engine results
// and NO engine-level integrity checking (the corruption flows
// straight into the CRT recombination), the service's
// verify-before-release must catch every faulted signature. A single
// released faulty CRT signature is the Bellcore attack — gcd(sig^E −
// digest, N) factors N — so the bar is zero wrong signatures, the
// signing twin of PR 5's zero-wrong-answers gate.
func TestCRTSignBellcoreSafety(t *testing.T) {
	inj := faults.New(faults.WithRate(0.5), faults.WithSeed(1234))
	eng, err := engine.New(
		engine.WithWorkers(2),
		engine.WithKit(kits.CIOS),
		engine.WithFaultInjector(inj), // no integrity options: raw corruption
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	svc := New(eng, WithBlindSeed(99))
	key := testKey(t, 512, 77)

	// A signature is released only when all four of its engine results
	// (r^E, both CRT halves, the verify) escape the 50% injector: 1 in
	// 16. Which core, and so which fault stream, runs each result
	// depends on scheduling, so the chance that none is released is
	// (15/16)^signs on any run: ~0.6% at 80 signs, ~6e-12 at 400.
	const signs = 400
	released, caught := 0, 0
	for i := 0; i < signs; i++ {
		digest := big.NewInt(int64(1_000_003 * (i + 1)))
		sig, err := svc.SignRSA(context.Background(), key, digest)
		if err != nil {
			if !errors.Is(err, errs.ErrIntegrity) {
				t.Fatalf("sign %d: unexpected error class: %v", i, err)
			}
			caught++
			continue
		}
		released++
		// Bellcore check: every released signature must verify — with
		// math/big, independent of the faulty engine.
		want := new(big.Int).Mod(digest, key.N)
		got := new(big.Int).Exp(sig, key.E, key.N)
		if got.Cmp(want) != 0 {
			t.Fatalf("sign %d: FAULTY SIGNATURE RELEASED (Bellcore-vulnerable)", i)
		}
	}
	t.Logf("%d signs under 50%% fault injection: %d released (all valid), %d caught as ErrIntegrity",
		signs, released, caught)
	if caught == 0 {
		t.Fatal("injector never fired — the gate tested nothing")
	}
	if released == 0 {
		t.Fatal("no signature survived — cannot attest the release path")
	}
}

// TestECDSASignFaultSafety: the same contract for ECDSA — a corrupted
// engine inversion must surface as ErrIntegrity, never as an invalid
// signature.
func TestECDSASignFaultSafety(t *testing.T) {
	inj := faults.New(faults.WithRate(0.5), faults.WithSeed(4321))
	eng, err := engine.New(
		engine.WithWorkers(2),
		engine.WithKit(kits.CIOS),
		engine.WithFaultInjector(inj),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	svc := New(eng, WithBlindSeed(17))
	curve, err := CurveByID(CurveP256)
	if err != nil {
		t.Fatal(err)
	}
	d := big.NewInt(0x1337_c0de)
	released, caught := 0, 0
	for i := 0; i < 20; i++ {
		digest := big.NewInt(int64(7919 * (i + 1)))
		r, s, err := svc.SignECDSA(context.Background(), CurveP256, d, digest, int64(i))
		if err != nil {
			if !errors.Is(err, errs.ErrIntegrity) {
				t.Fatalf("sign %d: unexpected error class: %v", i, err)
			}
			caught++
			continue
		}
		released++
		// Independent check: s·k ≡ e + r·d must hold for the derived
		// nonce (recompute it the way the service does).
		n := curve.Order
		e := new(big.Int).Mod(digest, n)
		valid := false
		for attempt := 0; attempt < 100; attempt++ {
			k := deriveNonce(n, int64(i), attempt, d, digest)
			lhs := new(big.Int).Mul(s, k)
			lhs.Mod(lhs, n)
			rhs := new(big.Int).Mul(r, d)
			rhs.Add(rhs, e)
			rhs.Mod(rhs, n)
			if lhs.Cmp(rhs) == 0 {
				valid = true
				break
			}
		}
		if !valid {
			t.Fatalf("sign %d: INVALID ECDSA SIGNATURE RELEASED", i)
		}
	}
	t.Logf("20 ECDSA signs under 50%% fault injection: %d released (all valid), %d caught", released, caught)
	if caught == 0 {
		t.Fatal("injector never fired on the ECDSA path")
	}
}

package cryptosvc

import (
	"context"
	"math/big"
	"testing"

	"repro/internal/sca"
)

// TestSCALeakageGate is the SCA regression gate: over ≥1000
// deterministic fixed-vs-random traces, the blinded sign path's
// multiply schedule must be statistically indistinguishable from
// random (max |t| < the TVLA threshold), and — so the gate provably
// has teeth — the identical harness must flag the unblinded path.
// Everything is seeded: the key, the blinds and the random group are
// all deterministic, so this is a hard CI gate, not a flaky
// statistical test.
func TestSCALeakageGate(t *testing.T) {
	const traces = 1000
	key := testKey(t, 512, 1001)
	eng := testEngine(t)

	blinded := New(eng, WithBlindSeed(1))
	got, err := blinded.LeakageCampaign(key, traces, 2024)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("blinded:   max|t| = %.2f over %d points × %d traces (threshold %.1f)",
		got.MaxT, got.Points, got.Traces, got.Threshold)
	if got.Leaks() {
		t.Fatalf("blinded sign path leaks: max|t| = %.2f ≥ %.1f", got.MaxT, got.Threshold)
	}
	if got.Threshold != sca.TVLAThreshold {
		t.Fatalf("gate must use the shared TVLA threshold, got %v", got.Threshold)
	}

	unblinded := New(eng, WithBlinding(false))
	bad, err := unblinded.LeakageCampaign(key, traces, 2024)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("unblinded: max|t| = %.2f over %d points × %d traces", bad.MaxT, bad.Points, bad.Traces)
	if !bad.Leaks() {
		t.Fatalf("gate has no teeth: unblinded path scored max|t| = %.2f < %.1f",
			bad.MaxT, bad.Threshold)
	}
	// The separation should be decisive, not marginal: a fixed
	// exponent against a random one scores tens of sigma.
	if bad.MaxT < 3*bad.Threshold {
		t.Fatalf("unblinded separation suspiciously weak: max|t| = %.2f", bad.MaxT)
	}
}

// TestLeakageCampaignConcurrentWithSigning pins the isolation fix: a
// campaign derives its traces from its own seeded draw source and
// never touches the live service's blinding source, so it can run
// alongside real signing (the race detector enforces this in the race
// matrix).
func TestLeakageCampaignConcurrentWithSigning(t *testing.T) {
	eng := testEngine(t)
	key := testKey(t, 256, 77)
	svc := New(eng, WithBlindSeed(5))

	done := make(chan error, 1)
	go func() {
		for i := 0; i < 5; i++ {
			digest := big.NewInt(int64(1000 + i))
			if _, err := svc.SignRSA(context.Background(), key, digest); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	if _, err := svc.LeakageCampaign(key, 50, 2025); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("concurrent signing failed: %v", err)
	}
}

// TestScheduleTrace pins the trace derivation the gate scores.
func TestScheduleTrace(t *testing.T) {
	// 0b110101 → MSB-first multiply schedule 1,1,0,1,0,1.
	exp, _ := new(big.Int).SetString("110101", 2)
	tr := ScheduleTrace(exp, 8)
	want := []int{1, 1, 0, 1, 0, 1, 0, 0} // padded past the exponent with 0
	for i := range want {
		if tr[i] != want[i] {
			t.Fatalf("point %d = %d, want %d (trace %v)", i, tr[i], want[i], tr)
		}
	}
}

// TestBlindedExponentShape pins the constant-shape property: every
// blinded exponent for a prime has exactly BitLen(p−1)+blindBits bits,
// so the schedule length never depends on the key or the draw.
func TestBlindedExponentShape(t *testing.T) {
	key := testKey(t, 512, 55)
	eng := testEngine(t)
	svc := New(eng, WithBlindSeed(9))
	want := new(big.Int).Sub(key.P, big.NewInt(1)).BitLen() + blindBits
	seen := map[string]bool{}
	for i := 0; i < 50; i++ {
		b, err := svc.blindExponent(key.DP, key.P, svc.randInt)
		if err != nil {
			t.Fatal(err)
		}
		if b.BitLen() != want {
			t.Fatalf("draw %d: blinded exponent has %d bits, want %d", i, b.BitLen(), want)
		}
		// d' ≡ d (mod p−1): the blinded exponent computes the same power.
		pm1 := new(big.Int).Sub(key.P, big.NewInt(1))
		if new(big.Int).Mod(b, pm1).Cmp(new(big.Int).Mod(key.DP, pm1)) != 0 {
			t.Fatal("blinded exponent is not ≡ d mod (p−1)")
		}
		seen[b.String()] = true
	}
	if len(seen) < 45 {
		t.Fatalf("blinds not fresh: only %d distinct of 50", len(seen))
	}
}

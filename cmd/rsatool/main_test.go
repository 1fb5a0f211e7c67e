package main

import (
	"crypto/sha256"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/kits"
	"repro/internal/rsa"
)

// The whole demo — keygen, encrypt, CRT decrypt, sign, verify — runs
// clean on every kit it is driven with. Sim is cycle-accurate and
// O(l²) per product, so it gets a small modulus.
func TestRun(t *testing.T) {
	for _, tc := range []struct {
		k    kits.Kit
		bits int
	}{
		{kits.Model, 128},
		{kits.CIOS, 128},
		{kits.Sim, 32},
	} {
		t.Run(tc.k.String(), func(t *testing.T) {
			if err := run(tc.bits, "2a", 1, tc.k, true, true); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// A signature through the cycle-accurate circuit reports the circuit's
// cycles and checks out under math/big.
func TestSignSimulated(t *testing.T) {
	key, err := rsa.GenerateKey(32, nil, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("simulated signature")
	sig, rep, err := signMessage(key, msg, kits.Sim)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SimulatedMulCycles <= 0 {
		t.Errorf("SimulatedMulCycles = %d, want > 0", rep.SimulatedMulCycles)
	}
	digest := sha256.Sum256(msg)
	h := new(big.Int).SetBytes(digest[:])
	h.Mod(h, key.N)
	if got := new(big.Int).Exp(sig, key.E, key.N); got.Cmp(h) != 0 {
		t.Fatalf("sig^E mod N = %s, want %s", got, h)
	}
}

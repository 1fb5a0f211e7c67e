package core

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/highradix"
	"repro/internal/integrity"
	"repro/internal/kits"
	"repro/internal/mont"
)

// TestCrossKitMontEquivalence is the cross-kit fuzz required of the
// compute-kit redesign: over random 256–2048-bit moduli, the radix-2
// reference (Model), the gate-level simulated array (Sim), the
// radix-2^64 CIOS fast path and the math/big oracle must all produce the
// same Montgomery product x·y·R⁻¹ mod N. Kits may legitimately return
// different representatives of that class (results live in [0, 2N), and
// CIOS reaches the paper's R through a different word-level chain), so
// agreement is checked mod N along with the range invariant. The Sim kit
// simulates one gate per clock edge, so its trial budget shrinks with l;
// the host-speed kits fuzz every trial.
func TestCrossKitMontEquivalence(t *testing.T) {
	cases := []struct {
		l         int
		trials    int
		simTrials int // the first simTrials also run the gate-level circuit
	}{
		{256, 12, 3},
		{512, 8, 2},
		{1024, 5, 1},
		{2048, 3, 1},
	}
	if testing.Short() {
		cases = cases[:2]
	}
	for _, tc := range cases {
		rng := rand.New(rand.NewSource(int64(0xC105 + tc.l)))
		n := randOdd(rng, tc.l)
		shared, err := mont.NewCtx(n)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewMultiplierFromCtx(shared)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := NewMultiplierFromCtx(shared, WithKit(kits.Sim))
		if err != nil {
			t.Fatal(err)
		}
		cios, err := NewMultiplierFromCtx(shared, WithKit(kits.CIOS))
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := NewMultiplierFromCtx(shared, WithKit(kits.Big))
		if err != nil {
			t.Fatal(err)
		}

		n2 := new(big.Int).Lsh(n, 1)
		for trial := 0; trial < tc.trials; trial++ {
			x := new(big.Int).Rand(rng, n2)
			y := new(big.Int).Rand(rng, n2)
			want, err := ref.Mont(x, y)
			if err != nil {
				t.Fatal(err)
			}
			wantMod := new(big.Int).Mod(want, n)
			check := func(kit string, m *Multiplier) {
				got, err := m.Mont(x, y)
				if err != nil {
					t.Fatalf("l=%d trial=%d kit=%s: %v", tc.l, trial, kit, err)
				}
				if got.Sign() < 0 || got.Cmp(n2) >= 0 {
					t.Fatalf("l=%d trial=%d kit=%s: result outside [0, 2N)", tc.l, trial, kit)
				}
				if new(big.Int).Mod(got, n).Cmp(wantMod) != 0 {
					t.Fatalf("l=%d trial=%d kit=%s: product disagrees mod N", tc.l, trial, kit)
				}
			}
			check("cios", cios)
			check("big", oracle)
			if trial < tc.simTrials {
				check("sim", sim)
			}
		}
	}
}

// TestCrossKitModExpEquivalence: modular exponentiation is R-independent
// — every kit canonicalizes into [0, N) — so unlike raw products the
// cross-kit comparison here is exact equality, anchored to math/big.
func TestCrossKitModExpEquivalence(t *testing.T) {
	cases := []struct {
		l       int
		withSim bool
	}{
		{256, true},
		{512, false},
		{1024, false},
		{2048, false},
	}
	if testing.Short() {
		cases = cases[:2]
	}
	for _, tc := range cases {
		rng := rand.New(rand.NewSource(int64(0xE4B + tc.l)))
		n := randOdd(rng, tc.l)
		base := new(big.Int).Rand(rng, n)
		exp := big.NewInt(65537) // F4 keeps the sim-kit ladder affordable
		want := new(big.Int).Exp(base, exp, n)

		kitSet := []kits.Kit{kits.Model, kits.CIOS, kits.Big}
		if tc.withSim {
			kitSet = append(kitSet, kits.Sim)
		}
		for _, k := range kitSet {
			ex, err := NewExponentiator(n, WithKit(k))
			if err != nil {
				t.Fatal(err)
			}
			got, rep, err := ex.ModExp(base, exp)
			if err != nil {
				t.Fatalf("l=%d kit=%s: %v", tc.l, k, err)
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("l=%d kit=%s: modexp disagrees with math/big", tc.l, k)
			}
			if rep.Squares != exp.BitLen()-1 || rep.Multiplies != 1 {
				t.Errorf("l=%d kit=%s: ladder report %d squares / %d multiplies for F4",
					tc.l, k, rep.Squares, rep.Multiplies)
			}
		}
	}
}

// TestCIOSWitnessIntegrity runs the integrity system's quotient-witness
// verification over the high-radix path: MulWitness exposes the CIOS
// quotient digits m as the witness M, and T·R = x·y + M·N must hold over
// the integers for the word-level R = 2^(64·S) and the product T before
// the final subtraction — checked by the R-generic residue verifier on
// operands across the kernel's [0, R) domain. A corrupted T must be
// refuted.
func TestCIOSWitnessIntegrity(t *testing.T) {
	sys := integrity.NewSystem(0)
	for _, l := range []int{256, 1024, 2048} {
		rng := rand.New(rand.NewSource(int64(0x317 + l)))
		n := randOdd(rng, l)
		ctx, err := mont.NewCtx(n)
		if err != nil {
			t.Fatal(err)
		}
		w := highradix.NewWord(ctx)
		r := w.Params().R
		for trial := 0; trial < 8; trial++ {
			x := new(big.Int).Rand(rng, r)
			y := new(big.Int).Rand(rng, r)
			tt, m, err := w.MulWitness(x, y)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.VerifyWitnessRN(n, r, x, y, tt, m); err != nil {
				t.Fatalf("l=%d trial=%d: witness refused: %v", l, trial, err)
			}
			bad := new(big.Int).Xor(tt, big.NewInt(1<<7))
			if err := sys.VerifyWitnessRN(n, r, x, y, bad, m); err == nil {
				t.Fatalf("l=%d trial=%d: corrupted T passed the witness check", l, trial)
			}
		}
	}
}

// TestKitAutoPinnedTable: with a pinned benchmark table, kit resolution
// at construction is fully deterministic — the multiplier reports
// exactly the pinned pick, across repeated constructions.
func TestKitAutoPinnedTable(t *testing.T) {
	tbl := &kits.Table{}
	for b := 0; b < kits.NumBuckets; b++ {
		tbl.Picks[b][int(kits.OpMont)] = kits.CIOS
		tbl.Picks[b][int(kits.OpModExp)] = kits.Big
	}
	n := randOdd(rand.New(rand.NewSource(9)), 512)
	for i := 0; i < 3; i++ {
		m, err := NewMultiplier(n, WithKit(kits.Auto), WithKitTable(tbl))
		if err != nil {
			t.Fatal(err)
		}
		if m.Kit() != kits.CIOS {
			t.Fatalf("auto multiplier resolved to %s, want cios", m.Kit())
		}
		ex, err := NewExponentiator(n, WithKit(kits.Auto), WithKitTable(tbl))
		if err != nil {
			t.Fatal(err)
		}
		if ex.Kit != kits.Big {
			t.Fatalf("auto exponentiator resolved to %s, want big", ex.Kit)
		}
	}
}

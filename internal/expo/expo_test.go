package expo

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/kits"
)

func randOdd(rng *rand.Rand, l int) *big.Int {
	n := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(l-1)))
	n.SetBit(n, l-1, 1)
	n.SetBit(n, 0, 1)
	return n
}

func TestNewValidation(t *testing.T) {
	if _, err := NewKit(big.NewInt(4), kits.Model); err == nil {
		t.Error("even modulus accepted")
	}
	if _, err := NewKit(big.NewInt(1), kits.Model); err == nil {
		t.Error("tiny modulus accepted")
	}
	if _, err := NewKit(big.NewInt(101), kits.Kit(kits.NumKits)); err == nil {
		t.Error("out-of-range kit accepted")
	}
	e, err := NewKit(big.NewInt(101), kits.Sim)
	if err != nil || e.L != 7 || e.Kit != kits.Sim {
		t.Fatalf("valid modulus rejected: %v", err)
	}
	if e.Ctx() == nil {
		t.Error("Ctx nil")
	}
}

func TestModExpValidation(t *testing.T) {
	e, _ := NewKit(big.NewInt(101), kits.Model)
	if _, _, err := e.ModExp(big.NewInt(5), big.NewInt(0)); err == nil {
		t.Error("zero exponent accepted")
	}
	if _, _, err := e.ModExp(big.NewInt(101), big.NewInt(3)); err == nil {
		t.Error("base = N accepted")
	}
	if _, _, err := e.ModExp(big.NewInt(-1), big.NewInt(3)); err == nil {
		t.Error("negative base accepted")
	}
}

// The Model kit must agree with math/big across widths, and its cycle
// report must follow the paper's formulas exactly.
func TestModelMatchesBigAndCycleFormulas(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, l := range []int{8, 16, 64, 160, 512, 1024} {
		n := randOdd(rng, l)
		e, err := NewKit(n, kits.Model)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 5; trial++ {
			m := new(big.Int).Rand(rng, n)
			x := new(big.Int).Rand(rng, n)
			if x.Sign() == 0 {
				x.SetInt64(3)
			}
			got, rep, err := e.ModExp(m, x)
			if err != nil {
				t.Fatal(err)
			}
			if want := new(big.Int).Exp(m, x, n); got.Cmp(want) != 0 {
				t.Fatalf("l=%d: ModExp mismatch", l)
			}
			if rep.Squares != x.BitLen()-1 {
				t.Errorf("squares = %d, want %d", rep.Squares, x.BitLen()-1)
			}
			if rep.PreCycles != 5*l+10 || rep.PostCycles != l+2 {
				t.Errorf("pre/post cycles = %d/%d", rep.PreCycles, rep.PostCycles)
			}
			if rep.MulCycles != (rep.Squares+rep.Multiplies)*(3*l+4) {
				t.Errorf("MulCycles inconsistent")
			}
			if rep.TotalCycles != rep.PreCycles+rep.MulCycles+rep.PostCycles {
				t.Errorf("TotalCycles inconsistent")
			}
			if rep.SimulatedMulCycles != 0 {
				t.Errorf("Model kit reported simulated cycles")
			}
		}
	}
}

// The Sim kit pushes every multiplication through the MMMC; it must
// produce the same result as Model and as math/big, and the simulated
// cycle count must be exactly (squares+multiplies+2)·(3l+4).
func TestSimulateMatchesModelAndCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for _, l := range []int{8, 16, 24} {
		n := randOdd(rng, l)
		sim, err := NewKit(n, kits.Sim)
		if err != nil {
			t.Fatal(err)
		}
		mod, _ := NewKit(n, kits.Model)
		for trial := 0; trial < 4; trial++ {
			m := new(big.Int).Rand(rng, n)
			x := new(big.Int).Rand(rng, n)
			if x.Sign() == 0 {
				x.SetInt64(5)
			}
			gotSim, repSim, err := sim.ModExp(m, x)
			if err != nil {
				t.Fatal(err)
			}
			gotMod, repMod, err := mod.ModExp(m, x)
			if err != nil {
				t.Fatal(err)
			}
			if gotSim.Cmp(gotMod) != 0 {
				t.Fatalf("l=%d: Sim %s != Model %s", l, gotSim, gotMod)
			}
			if want := new(big.Int).Exp(m, x, n); gotSim.Cmp(want) != 0 {
				t.Fatalf("l=%d: Sim != math/big", l)
			}
			if repSim.Squares != repMod.Squares || repSim.Multiplies != repMod.Multiplies {
				t.Fatal("kit decompositions differ")
			}
			wantCycles := (repSim.Squares + repSim.Multiplies + 2) * (3*l + 4)
			if repSim.SimulatedMulCycles != wantCycles {
				t.Fatalf("simulated cycles %d, want %d", repSim.SimulatedMulCycles, wantCycles)
			}
		}
	}
}

// Hazard-zone modulus: an all-ones modulus exercises operands that break
// the faithful array; the Sim kit (guarded) must stay correct over
// a full exponentiation.
func TestSimulateHazardModulus(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	l := 16
	n := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(l)), big.NewInt(1))
	// 2^16-1 = 65535 = 3·5·17·257 (odd, fine for Montgomery).
	e, err := NewKit(n, kits.Sim)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		m := new(big.Int).Rand(rng, n)
		x := new(big.Int).Rand(rng, n)
		if x.Sign() == 0 {
			x.SetInt64(7)
		}
		got, _, err := e.ModExp(m, x)
		if err != nil {
			t.Fatal(err)
		}
		if want := new(big.Int).Exp(m, x, n); got.Cmp(want) != 0 {
			t.Fatalf("hazard modulus exponentiation wrong")
		}
	}
}

// Eq. (10) conformance: an all-ones exponent of length l must cost
// exactly the upper bound under the paper's convention that the MSB
// also costs a square+multiply... the paper counts l squares and l
// multiplies for an (l+1)-bit all-ones exponent; with an exactly l-bit
// all-ones exponent our measured count is (l-1) squares + (l-1)
// multiplies, giving UpperBound(l) - 2(3l+4). Both bounds are asserted
// as exact identities so any drift in the accounting is caught.
func TestEq10Bounds(t *testing.T) {
	for _, l := range []int{8, 32, 128} {
		if PaperUpperBound(l)-PaperLowerBound(l) != 3*l*l+4*l {
			t.Errorf("bound gap wrong at l=%d", l)
		}
		if got := PaperAverageCycles(l); got != (float64(PaperLowerBound(l))+float64(PaperUpperBound(l)))/2 {
			t.Errorf("average is not the midpoint at l=%d", l)
		}
	}

	rng := rand.New(rand.NewSource(74))
	l := 32
	n := randOdd(rng, l)
	e, _ := NewKit(n, kits.Model)
	m := new(big.Int).Rand(rng, n)

	// All-ones exponent with exactly l bits: 2^l - 1.
	ones := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(l)), big.NewInt(1))
	_, rep, err := e.ModExp(m, ones)
	if err != nil {
		t.Fatal(err)
	}
	wantOnes := PaperUpperBound(l) - 2*(3*l+4)
	if rep.TotalCycles != wantOnes {
		t.Errorf("all-ones exponent: %d cycles, want %d", rep.TotalCycles, wantOnes)
	}

	// Single-bit exponent 2^(l-1): squares only.
	single := new(big.Int).Lsh(big.NewInt(1), uint(l-1))
	_, rep, err = e.ModExp(m, single)
	if err != nil {
		t.Fatal(err)
	}
	wantSingle := PaperLowerBound(l) - (3*l + 4)
	if rep.TotalCycles != wantSingle {
		t.Errorf("single-bit exponent: %d cycles, want %d", rep.TotalCycles, wantSingle)
	}
}

// RSA-shaped sanity check: encrypt/decrypt round trip through the model
// exponentiator with a real (tiny) RSA key.
func TestRSARoundTrip(t *testing.T) {
	p, q := big.NewInt(61), big.NewInt(53)
	n := new(big.Int).Mul(p, q) // 3233
	e := big.NewInt(17)
	d := big.NewInt(413) // 17⁻¹ mod lcm(60,52)=780? 17·413=7021=9·780+1 ✓
	ex, err := NewKit(n, kits.Model)
	if err != nil {
		t.Fatal(err)
	}
	msg := big.NewInt(65)
	c, _, err := ex.ModExp(msg, e)
	if err != nil {
		t.Fatal(err)
	}
	back, _, err := ex.ModExp(c, d)
	if err != nil {
		t.Fatal(err)
	}
	if back.Cmp(msg) != 0 {
		t.Fatalf("RSA round trip: %s", back)
	}
}

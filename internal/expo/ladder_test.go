package expo

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/kits"
)

// The ladder must agree with math/big and perform exactly one square
// plus one multiply per exponent bit — the uniform sequence property.
func TestLadderMatchesBigAndUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(181))
	for _, l := range []int{8, 32, 128, 512} {
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
			got, rep, err := e.ModExpLadder(m, x)
			if err != nil {
				t.Fatal(err)
			}
			if want := new(big.Int).Exp(m, x, n); got.Cmp(want) != 0 {
				t.Fatalf("l=%d: ladder wrong", l)
			}
			if rep.Squares != x.BitLen() || rep.Multiplies != x.BitLen() {
				t.Fatalf("non-uniform sequence: %d squares, %d multiplies for %d bits",
					rep.Squares, rep.Multiplies, x.BitLen())
			}
		}
	}
}

// Two exponents of the same length must yield identical operation
// sequences (the SCA property the plain Algorithm 3 lacks).
func TestLadderSequenceIndependentOfBits(t *testing.T) {
	rng := rand.New(rand.NewSource(182))
	n := randOdd(rng, 64)
	e, _ := NewKit(n, kits.Model)
	m := new(big.Int).Rand(rng, n)

	allOnes := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 60), big.NewInt(1))
	oneBit := new(big.Int).Lsh(big.NewInt(1), 59)
	_, repA, err := e.ModExpLadder(m, allOnes)
	if err != nil {
		t.Fatal(err)
	}
	_, repB, err := e.ModExpLadder(m, oneBit)
	if err != nil {
		t.Fatal(err)
	}
	if repA.TotalCycles != repB.TotalCycles {
		t.Fatalf("ladder cycle counts differ with Hamming weight: %d vs %d",
			repA.TotalCycles, repB.TotalCycles)
	}
	// Contrast: plain Algorithm 3 differs strongly between the two.
	_, repC, _ := e.ModExp(m, allOnes)
	_, repD, _ := e.ModExp(m, oneBit)
	if repC.TotalCycles == repD.TotalCycles {
		t.Fatal("Algorithm 3 unexpectedly uniform")
	}
}

// Ladder through the cycle-accurate circuit.
func TestLadderSimulated(t *testing.T) {
	rng := rand.New(rand.NewSource(183))
	n := randOdd(rng, 16)
	e, err := NewKit(n, kits.Sim)
	if err != nil {
		t.Fatal(err)
	}
	m := new(big.Int).Rand(rng, n)
	x := big.NewInt(0x59)
	got, rep, err := e.ModExpLadder(m, x)
	if err != nil {
		t.Fatal(err)
	}
	if want := new(big.Int).Exp(m, x, n); got.Cmp(want) != 0 {
		t.Fatal("simulated ladder wrong")
	}
	if rep.SimulatedMulCycles == 0 {
		t.Error("no simulated cycles recorded")
	}
}

func TestLadderValidation(t *testing.T) {
	e, _ := NewKit(big.NewInt(101), kits.Model)
	if _, _, err := e.ModExpLadder(big.NewInt(5), big.NewInt(0)); err == nil {
		t.Error("zero exponent accepted")
	}
	if _, _, err := e.ModExpLadder(big.NewInt(101), big.NewInt(3)); err == nil {
		t.Error("base = N accepted")
	}
}

// The window method must agree with math/big for every width, and wider
// windows must perform fewer multiplications on long exponents.
func TestWindowMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(184))
	for _, l := range []int{16, 64, 256} {
		n := randOdd(rng, l)
		e, _ := NewKit(n, kits.Model)
		for _, w := range []int{1, 2, 3, 4, 5} {
			for trial := 0; trial < 4; trial++ {
				m := new(big.Int).Rand(rng, n)
				x := new(big.Int).Rand(rng, n)
				if x.Sign() == 0 {
					x.SetInt64(7)
				}
				got, _, err := e.ModExpWindow(m, x, w)
				if err != nil {
					t.Fatal(err)
				}
				if want := new(big.Int).Exp(m, x, n); got.Cmp(want) != 0 {
					t.Fatalf("l=%d w=%d: window method wrong", l, w)
				}
			}
		}
	}
}

func TestWindowEdgeCases(t *testing.T) {
	e, _ := NewKit(big.NewInt(101), kits.Model)
	if _, _, err := e.ModExpWindow(big.NewInt(5), big.NewInt(3), 0); err == nil {
		t.Error("w=0 accepted")
	}
	if _, _, err := e.ModExpWindow(big.NewInt(5), big.NewInt(3), 17); err == nil {
		t.Error("w=17 accepted")
	}
	if _, _, err := e.ModExpWindow(big.NewInt(5), big.NewInt(0), 4); err == nil {
		t.Error("zero exponent accepted")
	}
	if _, _, err := e.ModExpWindow(big.NewInt(101), big.NewInt(3), 4); err == nil {
		t.Error("base = N accepted")
	}
	// Exponent 1 and exponent shorter than the window.
	got, _, err := e.ModExpWindow(big.NewInt(7), big.NewInt(1), 4)
	if err != nil || got.Int64() != 7 {
		t.Errorf("7^1 = %v (%v)", got, err)
	}
	got, _, _ = e.ModExpWindow(big.NewInt(0), big.NewInt(5), 3)
	if got.Sign() != 0 {
		t.Errorf("0^5 = %v", got)
	}
}

// Window-4 must beat window-1 (≈ binary) in total multiplications on a
// long balanced exponent, and the cycle accounting must track it.
func TestWindowReducesMultiplies(t *testing.T) {
	rng := rand.New(rand.NewSource(185))
	l := 512
	n := randOdd(rng, l)
	e, _ := NewKit(n, kits.Model)
	m := new(big.Int).Rand(rng, n)
	x := new(big.Int).Rand(rng, n)
	x.SetBit(x, l-1, 1)
	_, rep1, err := e.ModExpWindow(m, x, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, rep4, err := e.ModExpWindow(m, x, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep4.Multiplies >= rep1.Multiplies {
		t.Errorf("w=4 multiplies %d not below w=1's %d", rep4.Multiplies, rep1.Multiplies)
	}
	if rep4.TotalCycles >= rep1.TotalCycles {
		t.Errorf("w=4 total cycles %d not below w=1's %d", rep4.TotalCycles, rep1.TotalCycles)
	}
}

// Ladder and window must match math/big on every kit — each
// product dispatches on the kit — and on the Sim kit every product is
// measured, so SimulatedMulCycles must be exactly products·(3l+4).
func TestLadderAndWindowEveryKit(t *testing.T) {
	rng := rand.New(rand.NewSource(186))
	const l, w = 16, 3
	n := randOdd(rng, l)
	for _, k := range []kits.Kit{kits.Model, kits.Sim, kits.CIOS, kits.Big} {
		e, err := NewKit(n, k)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 3; trial++ {
			m := new(big.Int).Rand(rng, n)
			x := new(big.Int).Rand(rng, n)
			if x.Sign() == 0 {
				x.SetInt64(11)
			}
			want := new(big.Int).Exp(m, x, n)
			got, rep, err := e.ModExpLadder(m, x)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("%s: ladder wrong", k)
			}
			checkSimCycles(t, k, rep, rep.Squares+rep.Multiplies+2) // + pre and post
			got, rep, err = e.ModExpWindow(m, x, w)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("%s: window wrong", k)
			}
			checkSimCycles(t, k, rep, (1<<w-1)+rep.Squares+rep.Multiplies+1) // + table and post
		}
	}
}

func checkSimCycles(t *testing.T, k kits.Kit, rep Report, products int) {
	t.Helper()
	want := 0
	if k == kits.Sim {
		want = products * (3*rep.L + 4)
	}
	if rep.SimulatedMulCycles != want {
		t.Fatalf("%s: simulated cycles %d, want %d", k, rep.SimulatedMulCycles, want)
	}
}

package core

import (
	"errors"
	"fmt"
	"math/big"
	"testing"

	"repro/internal/errs"
	"repro/internal/kits"
)

// edgeWidths are the modulus bit lengths around the 64-bit limb
// boundaries, where Walter's bound (R = 2^(l+2)) and the word kernel's
// limb count S = ⌈l/64⌉ meet with the least slack, plus the RSA
// CRT-half and full-modulus widths.
var edgeWidths = []int{
	62, 63, 64, 65, 66,
	126, 127, 128, 129, 130, 131,
	190, 191, 192, 193, 194,
	253, 254, 255, 256, 257, 258,
	1022, 1023, 1024,
	2046, 2047, 2048,
}

// edgeModuli returns the maximal and minimal odd l-bit moduli:
// 2^l−1 (every limb all-ones) and 2^(l−1)+1 (a lone top bit).
func edgeModuli(l int) map[string]*big.Int {
	one := big.NewInt(1)
	hi := new(big.Int).Lsh(one, uint(l))
	lo := new(big.Int).Lsh(one, uint(l-1))
	return map[string]*big.Int{
		"2^l-1":     hi.Sub(hi, one),
		"2^(l-1)+1": lo.Add(lo, one),
	}
}

// edgeKits lists the kits swept at width l: the host kits everywhere,
// the cycle-accurate Sim kit only below 67 bits, where its O(l²)
// simulation per product stays cheap.
func edgeKits(l int) []kits.Kit {
	ks := []kits.Kit{kits.Model, kits.CIOS, kits.Big}
	if l <= 66 {
		ks = append(ks, kits.Sim)
	}
	return ks
}

// TestKitEdgeSweep runs every kit through the Multiplier and
// Exponentiator interfaces at the limb-boundary widths, on the maximal
// and minimal modulus of each width. Mont takes every pair of the edge
// operands {0, 1, N−1, N, 2N−1}; each result must lie in [0, 2N) and
// equal x·y·2^−(l+2) mod N as math/big computes it, and x = 2N must
// fail with ErrOperandRange without touching the counters. ModExp must
// equal big.Int.Exp exactly, for exponents on both sides of the CIOS
// kit's 64-bit switch from binary to windowed exponentiation (short
// exponents only on the Sim kit, and on the Model kit at the RSA
// widths).
func TestKitEdgeSweep(t *testing.T) {
	for _, l := range edgeWidths {
		for shape, n := range edgeModuli(l) {
			for _, k := range edgeKits(l) {
				name := fmt.Sprintf("l=%d/N=%s/%s", l, shape, k)
				checkMontEdges(t, name, n, k)
				checkModExpEdges(t, name, n, k)
			}
		}
	}
}

func checkMontEdges(t *testing.T, name string, n *big.Int, k kits.Kit) {
	t.Helper()
	m, err := NewMultiplier(n, WithKit(k))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if m.Kit() != k {
		t.Fatalf("%s: multiplier runs on %s", name, m.Kit())
	}
	one := big.NewInt(1)
	n2 := new(big.Int).Lsh(n, 1)
	ops := []*big.Int{
		big.NewInt(0), one, new(big.Int).Sub(n, one), n, new(big.Int).Sub(n2, one),
	}
	rInv := new(big.Int).Lsh(one, uint(n.BitLen()+2))
	rInv.ModInverse(rInv, n)
	products := 0
	for _, x := range ops {
		for _, y := range ops {
			got, err := m.Mont(x, y)
			if err != nil {
				t.Fatalf("%s: Mont(%v, %v): %v", name, x, y, err)
			}
			products++
			if got.Sign() < 0 || got.Cmp(n2) >= 0 {
				t.Fatalf("%s: Mont(%v, %v) = %v outside [0, 2N)", name, x, y, got)
			}
			want := new(big.Int).Mul(x, y)
			want.Mul(want, rInv).Mod(want, n)
			if new(big.Int).Mod(got, n).Cmp(want) != 0 {
				t.Fatalf("%s: Mont(%v, %v) = %v, want %v mod N", name, x, y, got, want)
			}
		}
	}
	// x = 2N is out of range on every kit, and a failed call is not
	// counted.
	if _, err := m.Mont(n2, one); !errors.Is(err, errs.ErrOperandRange) {
		t.Fatalf("%s: Mont(2N, 1): err = %v, want ErrOperandRange", name, err)
	}
	wantCycles := 0
	if k == kits.Sim {
		wantCycles = products * m.CyclesPerMont()
	}
	if m.Muls != products || m.Cycles != wantCycles {
		t.Fatalf("%s: counters Muls=%d Cycles=%d, want %d and %d",
			name, m.Muls, m.Cycles, products, wantCycles)
	}
}

func checkModExpEdges(t *testing.T, name string, n *big.Int, k kits.Kit) {
	t.Helper()
	ex, err := NewExponentiator(n, WithKit(k))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	one := big.NewInt(1)
	bases := []*big.Int{big.NewInt(0), one, big.NewInt(2), new(big.Int).Sub(n, one)}
	exps := []*big.Int{one, big.NewInt(2), big.NewInt(3)}
	// 2^16+1 runs the CIOS kit's binary schedule, the all-ones 72-bit
	// exponent its fixed window. The bit-serial kits skip them where a
	// product is slow: Sim everywhere, Model at the RSA widths.
	if k != kits.Sim && (k != kits.Model || n.BitLen() <= 258) {
		exps = append(exps, big.NewInt(65537), new(big.Int).Sub(new(big.Int).Lsh(one, 72), one))
	}
	for _, b := range bases {
		for _, e := range exps {
			got, _, err := ex.ModExp(b, e)
			if err != nil {
				t.Fatalf("%s: ModExp(%v, %v): %v", name, b, e, err)
			}
			if want := new(big.Int).Exp(b, e, n); got.Cmp(want) != 0 {
				t.Fatalf("%s: ModExp(%v, %v) = %v, want %v", name, b, e, got, want)
			}
		}
	}
}

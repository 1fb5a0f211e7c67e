package mont

import (
	"math/big"
	"testing"
)

// FuzzAlgorithm2 checks the Montgomery invariant set on arbitrary
// operand bytes: output < 2N and the correct residue. Run with `go test
// -fuzz FuzzAlgorithm2 ./internal/mont` for an open-ended search; the
// seed corpus runs under plain `go test`. The word-level kernel has its
// own fuzz target, highradix.FuzzWordWitness.
func FuzzAlgorithm2(f *testing.F) {
	f.Add([]byte{0x0d}, []byte{0x05}, []byte{0x09})
	f.Add([]byte{0xff, 0xff}, []byte{0x12, 0x34}, []byte{0xab, 0xcd})
	f.Add([]byte{0x01, 0x00, 0x01}, []byte{0xfe}, []byte{0x02})
	f.Fuzz(func(t *testing.T, nb, xb, yb []byte) {
		n := new(big.Int).SetBytes(nb)
		n.SetBit(n, 0, 1) // force odd
		if n.Cmp(big.NewInt(3)) < 0 || n.BitLen() > 256 {
			t.Skip()
		}
		ctx, err := NewCtx(n)
		if err != nil {
			t.Skip()
		}
		x := new(big.Int).SetBytes(xb)
		x.Mod(x, ctx.N2)
		y := new(big.Int).SetBytes(yb)
		y.Mod(y, ctx.N2)

		got := ctx.Mul(x, y)
		if got.Cmp(ctx.N2) >= 0 || got.Sign() < 0 {
			t.Fatalf("output bound violated: %s", got)
		}
		want := ctx.MulClosedForm(x, y)
		if new(big.Int).Mod(got, n).Cmp(want) != 0 {
			t.Fatalf("wrong residue: N=%s x=%s y=%s", n, x, y)
		}
	})
}

// FuzzNPrime checks the Hensel inverse on arbitrary odd inputs.
func FuzzNPrime(f *testing.F) {
	f.Add([]byte{0x0d}, uint8(8))
	f.Add([]byte{0xff, 0x01}, uint8(32))
	f.Fuzz(func(t *testing.T, nb []byte, alpha uint8) {
		if alpha == 0 || alpha > 64 {
			t.Skip()
		}
		n := new(big.Int).SetBytes(nb)
		n.SetBit(n, 0, 1)
		if n.BitLen() > 512 {
			t.Skip()
		}
		np, err := NPrime(n, uint(alpha))
		if err != nil {
			t.Fatal(err)
		}
		mod := new(big.Int).Lsh(big.NewInt(1), uint(alpha))
		check := new(big.Int).Mul(n, np)
		check.Add(check, big.NewInt(1)).Mod(check, mod)
		if check.Sign() != 0 {
			t.Fatalf("N·N'+1 ≢ 0 mod 2^%d for N=%s", alpha, n)
		}
	})
}

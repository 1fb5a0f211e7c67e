package highradix

import (
	"bytes"
	"math/big"
	"testing"

	"repro/internal/mont"
)

// FuzzWordWitness drives the word-level kernel on arbitrary (N, x, y)
// up to 512 bits, with x and y taken mod R into the kernel's [0, R)
// domain: the witness identity T·R = x·y + M·N must hold exactly for the
// product T before the final masked subtraction, and the subtraction
// must fire exactly when T ≥ R (checkWitness). Word.Mont, fed x and y
// mod 2N, must agree mod N with the bit-serial Algorithm 2
// (mont.Ctx.Mul). Run with `go test -fuzz FuzzWordWitness
// ./internal/highradix` for an open-ended search. The committed corpus
// (Walter-tight lengths l = 62/126/254 with operands 0 and 2N−1) and
// the seeds below (limb-full lengths l = 64/128/256, all-ones N with
// operands R−1, where the carry fires most) replay under plain
// `go test`.
func FuzzWordWitness(f *testing.F) {
	f.Add([]byte{0x0d}, []byte{0x05}, []byte{0x09})
	for _, limbs := range []int{1, 2, 4} {
		ones := bytes.Repeat([]byte{0xff}, 8*limbs) // N = 2^l − 1 and R − 1
		half := append([]byte{0x80}, make([]byte, 8*limbs-1)...)
		half[len(half)-1] = 1 // N = 2^(l−1) + 1
		f.Add(ones, ones, ones)
		f.Add(half, ones, ones)
	}
	f.Fuzz(func(t *testing.T, nb, xb, yb []byte) {
		n := new(big.Int).SetBytes(nb)
		n.SetBit(n, 0, 1) // force odd
		if n.Cmp(big.NewInt(3)) < 0 || n.BitLen() > 512 {
			t.Skip()
		}
		ctx, err := mont.NewCtx(n)
		if err != nil {
			t.Skip()
		}
		w := NewWord(ctx)
		p := w.Params()
		x := new(big.Int).SetBytes(xb)
		y := new(big.Int).SetBytes(yb)
		xk, yk := new(big.Int).Mod(x, p.R), new(big.Int).Mod(y, p.R)
		out := make([]uint64, p.S)
		wit := make([]uint64, p.S)
		carry := w.MulWitnessInto(out, wit, mont.WordsFromBig(xk, p.S), mont.WordsFromBig(yk, p.S))
		checkWitness(t, p, xk, yk, out, wit, carry)

		x.Mod(x, ctx.N2)
		y.Mod(y, ctx.N2)
		got, err := w.Mont(x, y)
		if err != nil {
			t.Fatal(err)
		}
		got.Sub(got, ctx.Mul(x, y))
		if got.Mod(got, n).Sign() != 0 {
			t.Fatalf("Word.Mont ≢ Algorithm 2 (mod N): N=%s x=%s y=%s", n, x, y)
		}
	})
}

package highradix

import (
	"math/big"
	"testing"

	"repro/internal/mont"
)

// FuzzWordWitness drives the word-level kernel on arbitrary (N, x, y)
// up to 512 bits: the witness identity T·R = x·y + M·N must hold
// exactly, T must stay below 2N, and Word.Mont must agree mod N with
// the bit-serial Algorithm 2 (mont.Ctx.Mul). Run with `go test -fuzz
// FuzzWordWitness ./internal/highradix` for an open-ended search; the
// committed corpus (tight-edge lengths l = 62/126/254 with operands 0
// and 2N−1) replays under plain `go test`.
func FuzzWordWitness(f *testing.F) {
	f.Add([]byte{0x0d}, []byte{0x05}, []byte{0x09})
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
		x := new(big.Int).SetBytes(xb)
		x.Mod(x, ctx.N2)
		y := new(big.Int).SetBytes(yb)
		y.Mod(y, ctx.N2)

		w := NewWord(ctx)
		p := w.Params()
		out := make([]uint64, p.S)
		wit := make([]uint64, p.S)
		w.MulWitnessInto(out, wit, mont.WordsFromBig(x, p.S), mont.WordsFromBig(y, p.S))
		checkWitness(t, p, x, y, out, wit)

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

package mont_test

// The word-level CIOS kernel (highradix.Word) is built from this
// package's Ctx and WordParams. These tests check that kernel from the
// side of the parameters it is built on — against math/big and against
// the bit-serial Algorithm 2 — in an external test package, since
// highradix imports mont.

import (
	"math/big"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/highradix"
	"repro/internal/mont"
)

// oddModulus returns a random odd modulus of exactly bitLen bits.
func oddModulus(rng *rand.Rand, bitLen int) *big.Int {
	n := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(bitLen-1)))
	n.SetBit(n, bitLen-1, 1)
	n.SetBit(n, 0, 1)
	return n
}

func newWord(t *testing.T, n *big.Int) *highradix.Word {
	t.Helper()
	ctx, err := mont.NewCtx(n)
	if err != nil {
		t.Fatal(err)
	}
	return highradix.NewWord(ctx)
}

// The kernel inherits its modulus validation from NewCtx, sizes its limbs
// by S = ⌈(l+2)/64⌉, and rejects operands outside its documented ranges.
func TestCIOSValidation(t *testing.T) {
	if _, err := mont.NewCtx(big.NewInt(4)); err != mont.ErrEvenModulus {
		t.Errorf("even: %v", err)
	}
	if _, err := mont.NewCtx(big.NewInt(1)); err != mont.ErrModulusTooSmall {
		t.Errorf("small: %v", err)
	}
	n := big.NewInt(101)
	w := newWord(t, n)
	if s := w.Params().S; s != 1 {
		t.Errorf("S = %d, want 1", s)
	}
	n2 := new(big.Int).Lsh(n, 1)
	if _, err := w.Mont(n2, big.NewInt(1)); err == nil {
		t.Error("Mont operand = 2N accepted")
	}
	if _, err := w.Mont(big.NewInt(1), big.NewInt(-1)); err == nil {
		t.Error("negative Mont operand accepted")
	}
	if _, err := w.ModExp(n, big.NewInt(3)); err == nil {
		t.Error("ModExp base = N accepted")
	}
	if _, err := w.ModExp(big.NewInt(-1), big.NewInt(3)); err == nil {
		t.Error("negative ModExp base accepted")
	}
}

// MulInto returns a·b·R⁻¹ mod N (R = 2^(64·S)) as a representative in
// [0, 2N), for single-limb, limb-boundary and multi-limb widths.
func TestCIOSMulMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, l := range []int{16, 63, 64, 65, 128, 512, 1024} {
		n := oddModulus(rng, l)
		w := newWord(t, n)
		p := w.Params()
		rinv := new(big.Int).ModInverse(p.R, n)
		for trial := 0; trial < 20; trial++ {
			xa := new(big.Int).Rand(rng, p.N2)
			xb := new(big.Int).Rand(rng, p.N2)
			out := make([]uint64, p.S)
			w.MulInto(out, mont.WordsFromBig(xa, p.S), mont.WordsFromBig(xb, p.S))
			got := mont.BigFromWords(out)
			want := new(big.Int).Mul(xa, xb)
			want.Mul(want, rinv).Mod(want, n)
			if got.Cmp(p.N2) >= 0 || new(big.Int).Mod(got, n).Cmp(want) != 0 {
				t.Fatalf("l=%d MulInto mismatch: got %s want %s (mod N)", l, got, want)
			}
		}
	}
}

// Entering the Montgomery domain with R² mod N and leaving it with a
// product by 1 — the conversions ModExp uses — returns the operand.
func TestCIOSToFromMont(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	n := oddModulus(rng, 256)
	w := newWord(t, n)
	p := w.Params()
	one := make([]uint64, p.S)
	one[0] = 1
	for trial := 0; trial < 50; trial++ {
		x := new(big.Int).Rand(rng, n)
		xm, back := make([]uint64, p.S), make([]uint64, p.S)
		w.MulInto(xm, mont.WordsFromBig(x, p.S), p.RR)
		w.MulInto(back, xm, one)
		got := mont.BigFromWords(back)
		if got.Cmp(n) > 0 || new(big.Int).Mod(got, n).Cmp(x) != 0 {
			t.Fatalf("domain round trip of %s gave %s", x, got)
		}
	}
}

func TestCIOSExpMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, l := range []int{32, 128, 512, 1024} {
		n := oddModulus(rng, l)
		w := newWord(t, n)
		m := new(big.Int).Rand(rng, n)
		e := new(big.Int).Rand(rng, n)
		if e.Sign() == 0 {
			e.SetInt64(3)
		}
		got, err := w.ModExp(m, e)
		if err != nil {
			t.Fatal(err)
		}
		if want := new(big.Int).Exp(m, e, n); got.Cmp(want) != 0 {
			t.Fatalf("l=%d ModExp mismatch", l)
		}
	}
	if _, err := newWord(t, big.NewInt(13)).ModExp(big.NewInt(2), big.NewInt(0)); err == nil {
		t.Error("zero exponent accepted")
	}
}

// The word-level kernel and the bit-serial Algorithm 2 are independent
// implementations of the same exponentiation; they must agree.
func TestCrossImplementationExp(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 10; trial++ {
		n := oddModulus(rng, 160)
		ctx, _ := mont.NewCtx(n)
		m := new(big.Int).Rand(rng, n)
		e := new(big.Int).Rand(rng, n)
		if e.Sign() == 0 {
			e.SetInt64(5)
		}
		a, _, err := ctx.Exp(m, e)
		if err != nil {
			t.Fatal(err)
		}
		b, err := highradix.NewWord(ctx).ModExp(m, e)
		if err != nil {
			t.Fatal(err)
		}
		if a.Cmp(b) != 0 {
			t.Fatalf("implementations disagree: %s vs %s", a, b)
		}
	}
}

// Property: every product stays in [0, 2N) with no final subtraction,
// and an exponentiation leaves the domain canonical, in [0, N).
func TestQuickCIOSCanonical(t *testing.T) {
	n, _ := new(big.Int).SetString("f000000000000000000000000000000d", 16)
	ctx, err := mont.NewCtx(n)
	if err != nil {
		t.Fatal(err)
	}
	w := highradix.NewWord(ctx)
	p := w.Params()
	f := func(a0, a1, b0, b1 uint64) bool {
		xa := new(big.Int).SetUint64(a1)
		xa.Lsh(xa, 64).Or(xa, new(big.Int).SetUint64(a0)).Mod(xa, p.N2)
		xb := new(big.Int).SetUint64(b1)
		xb.Lsh(xb, 64).Or(xb, new(big.Int).SetUint64(b0)).Mod(xb, p.N2)
		out := make([]uint64, p.S)
		w.MulInto(out, mont.WordsFromBig(xa, p.S), mont.WordsFromBig(xb, p.S))
		if mont.BigFromWords(out).Cmp(p.N2) >= 0 {
			return false
		}
		r, err := w.ModExp(new(big.Int).Mod(xa, n), new(big.Int).Add(xb, big.NewInt(1)))
		return err == nil && r.Cmp(n) < 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// checkWordMethods asserts that the kernel's entry points agree on one
// operand pair: MulInto and MulWitnessInto give identical limbs, the
// witness satisfies T·R = x·y + M·N, and Word.Mont equals the bit-serial
// Algorithm 2 (Ctx.Mul) mod N.
func checkWordMethods(t *testing.T, ctx *mont.Ctx, w *highradix.Word, x, y *big.Int) {
	t.Helper()
	p := w.Params()
	a, b := mont.WordsFromBig(x, p.S), mont.WordsFromBig(y, p.S)
	out, wout, wit := make([]uint64, p.S), make([]uint64, p.S), make([]uint64, p.S)
	w.MulInto(out, a, b)
	w.MulWitnessInto(wout, wit, a, b)
	if !slices.Equal(out, wout) {
		t.Fatalf("l=%d: MulWitnessInto diverges from MulInto:\n x=%s\n y=%s", p.L, x, y)
	}
	lhs := new(big.Int).Mul(mont.BigFromWords(out), p.R)
	rhs := new(big.Int).Mul(x, y)
	rhs.Add(rhs, new(big.Int).Mul(mont.BigFromWords(wit), p.NBig))
	if lhs.Cmp(rhs) != 0 {
		t.Fatalf("l=%d: T·R ≠ x·y + M·N:\n x=%s\n y=%s", p.L, x, y)
	}
	got, err := w.Mont(x, y)
	if err != nil {
		t.Fatal(err)
	}
	want := ctx.Mul(x, y)
	if d := new(big.Int).Sub(got, want); d.Mod(d, p.NBig).Sign() != 0 {
		t.Fatalf("l=%d: Word.Mont %s ≢ Algorithm 2 %s (mod N):\n x=%s\n y=%s", p.L, got, want, x, y)
	}
}

// checkWordModExp asserts ModExp equals math/big's Exp for a short
// exponent (binary ladder) and one longer than 64 bits (fixed window).
func checkWordModExp(t *testing.T, w *highradix.Word, rng *rand.Rand, m *big.Int) {
	t.Helper()
	n := w.Params().NBig
	long := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(n.BitLen()+65)))
	for _, e := range []*big.Int{big.NewInt(65537), long.SetBit(long, n.BitLen()+64, 1)} {
		got, err := w.ModExp(m, e)
		if err != nil {
			t.Fatal(err)
		}
		if want := new(big.Int).Exp(m, e, n); got.Cmp(want) != 0 {
			t.Fatalf("l=%d: ModExp(%s, %d-bit e) = %s, want %s", w.Params().L, m, e.BitLen(), got, want)
		}
	}
}

// wordLengths are the modulus widths the word-kernel tests sweep:
// single-limb, limb-boundary (190–194 and 256–258 straddle l+2 ≡ 0
// mod 64) and multi-limb.
var wordLengths = []int{16, 63, 64, 65, 128, 190, 191, 192, 193, 194, 256, 257, 258, 511, 512, 1024}

// The word kernel's entry points agree with each other and with the
// bit-serial Algorithm 2 on random operands in [0, 2N) across widths,
// and ModExp agrees with math/big.
func TestWordMethodsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	for _, l := range wordLengths {
		n := oddModulus(rng, l)
		ctx, _ := mont.NewCtx(n)
		w := highradix.NewWord(ctx)
		for trial := 0; trial < 15; trial++ {
			checkWordMethods(t, ctx, w, new(big.Int).Rand(rng, w.Params().N2), new(big.Int).Rand(rng, w.Params().N2))
		}
		checkWordModExp(t, w, rng, new(big.Int).Rand(rng, n))
	}
}

// Edge operands: zero, one, two, (N-1)/2, N-1, N, 2N-1 and a random one
// — N and 2N-1 are legal inputs only because the kernel has no final
// subtraction — for a fixed 128-bit modulus and one of every swept width.
func TestWordMethodsEdgeOperands(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	fixed, _ := new(big.Int).SetString("ffffffffffffffffffffffffffffff61", 16)
	moduli := []*big.Int{fixed}
	for _, l := range wordLengths {
		moduli = append(moduli, oddModulus(rng, l))
	}
	for _, n := range moduli {
		ctx, err := mont.NewCtx(n)
		if err != nil {
			t.Fatal(err)
		}
		w := highradix.NewWord(ctx)
		nm1 := new(big.Int).Sub(n, big.NewInt(1))
		edges := []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(2), new(big.Int).Rsh(nm1, 1),
			nm1, n, new(big.Int).Sub(w.Params().N2, big.NewInt(1)), new(big.Int).Rand(rng, w.Params().N2)}
		for _, x := range edges {
			for _, y := range edges {
				checkWordMethods(t, ctx, w, x, y)
			}
		}
		for _, m := range []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(2), nm1} {
			checkWordModExp(t, w, rng, m)
		}
	}
}

package highradix

import (
	"math/big"
	mathbits "math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mont"
)

// The SOS and FIOS members of the Koç–Acar–Kaliski taxonomy, written
// over the same []uint64 limbs and *mont.WordParams as Word.mul (CIOS).
// They are the ablation baselines for the word-level kernel: SOS
// multiplies fully and then reduces fully, FIOS fuses the product and
// the reduction into one inner loop. Like Word.mul they drop the final
// subtraction — R = 2^(64·S) > 4N keeps every result below 2N — and
// they record the quotient digits m_i in wit when it is non-nil.
//
// The three methods agree bit for bit, digits included: m_i is the
// unique 64-bit digit that clears limb i of a·b + Σ_{j<i} m_j·N·2^(64j),
// which depends only on the low i+1 limbs of a·b + M·N, however the
// loops are scheduled.

// sosMul sets out = (a·b + M·N)/R with the SOS method; t is scratch of
// 2·S limbs.
func sosMul(p *mont.WordParams, out, a, b, wit, t []uint64) {
	s := p.S
	for i := range t {
		t[i] = 0
	}
	// Multiplication phase: the full 2S-limb product a·b.
	for i := 0; i < s; i++ {
		var carry uint64
		for j := 0; j < s; j++ {
			hi, lo := mulAdd(a[i], b[j], t[i+j], carry)
			t[i+j] = lo
			carry = hi
		}
		t[i+s] = carry
	}
	// Reduction phase: clear the low S limbs one at a time. a·b + M·N <
	// 4N² + R·N < R², so the carry never leaves the 2S limbs.
	for i := 0; i < s; i++ {
		m := t[i] * p.N0Inv
		if wit != nil {
			wit[i] = m
		}
		var carry uint64
		for j := 0; j < s; j++ {
			hi, lo := mulAdd(m, p.N[j], t[i+j], carry)
			t[i+j] = lo
			carry = hi
		}
		for k := i + s; carry != 0; k++ {
			t[k], carry = mathbits.Add64(t[k], carry, 0)
		}
	}
	copy(out, t[s:])
}

// fiosMul sets out = (a·b + M·N)/R with the FIOS method; t is scratch
// of S+2 limbs.
func fiosMul(p *mont.WordParams, out, a, b, wit, t []uint64) {
	s := p.S
	for i := range t {
		t[i] = 0
	}
	for i := 0; i < s; i++ {
		ai := a[i]
		// t_0 + a_i·b_0 fixes this pass's quotient digit.
		carryMul, sum0 := mulAdd(ai, b[0], t[0], 0)
		m := sum0 * p.N0Inv
		if wit != nil {
			wit[i] = m
		}
		carryRed, _ := mulAdd(m, p.N[0], sum0, 0) // low limb is zero by construction
		for j := 1; j < s; j++ {
			var sum uint64
			carryMul, sum = mulAdd(ai, b[j], t[j], carryMul)
			carryRed, sum = mulAdd(m, p.N[j], sum, carryRed)
			t[j-1] = sum
		}
		sum, c1 := mathbits.Add64(t[s], carryMul, 0)
		sum, c2 := mathbits.Add64(sum, carryRed, 0)
		t[s-1] = sum
		t[s] = t[s+1] + c1 + c2
		t[s+1] = 0
	}
	copy(out, t[:s])
}

// mulAdd returns x·y + z + c as (hi, lo); it cannot overflow 128 bits.
func mulAdd(x, y, z, c uint64) (hi, lo uint64) {
	hi, lo = mathbits.Mul64(x, y)
	lo, c1 := mathbits.Add64(lo, z, 0)
	lo, c2 := mathbits.Add64(lo, c, 0)
	return hi + c1 + c2, lo
}

// wordMethod is one limb-level Montgomery loop under test.
type wordMethod struct {
	name string
	mul  func(w *Word, out, a, b, wit []uint64)
}

func wordMethods() []wordMethod {
	return []wordMethod{
		{"CIOS", func(w *Word, out, a, b, wit []uint64) { w.MulWitnessInto(out, wit, a, b) }},
		{"SOS", func(w *Word, out, a, b, wit []uint64) {
			sosMul(w.p, out, a, b, wit, make([]uint64, 2*w.p.S))
		}},
		{"FIOS", func(w *Word, out, a, b, wit []uint64) {
			fiosMul(w.p, out, a, b, wit, make([]uint64, w.p.S+2))
		}},
	}
}

// edgeLengths are the modulus bit lengths around limb boundaries. Lengths
// with l+2 ≡ 0 (mod 64) are the tight edge of Walter's bound at word
// level: R = 2^(l+2) exactly, and 4N = R − 4 for N = 2^l − 1.
var edgeLengths = []int{62, 63, 64, 65, 126, 127, 128, 129, 190, 191, 192, 193, 194,
	254, 255, 256, 257, 258, 1022, 1023, 2046, 2047}

// SOS, FIOS and MulInto must return bit-identical products and quotient
// digits at every limb boundary, on edge and random operands in [0, 2N),
// for a random l-bit modulus and the all-ones one, and ModExp — windowed
// or binary — must match math/big.
func TestWordMethodsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	for _, l := range edgeLengths {
		allOnes := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(l)), big.NewInt(1))
		for _, n := range []*big.Int{randOdd(rng, l), allOnes} {
			ctx, err := mont.NewCtx(n)
			if err != nil {
				t.Fatal(err)
			}
			w := NewWord(ctx)
			p := w.Params()
			ops := []*big.Int{
				big.NewInt(0), big.NewInt(1),
				new(big.Int).Sub(n, big.NewInt(1)), n,
				new(big.Int).Sub(p.N2, big.NewInt(1)),
				new(big.Int).Rand(rng, p.N2), new(big.Int).Rand(rng, p.N2),
			}
			for _, x := range ops {
				for _, y := range ops {
					a := mont.WordsFromBig(x, p.S)
					b := mont.WordsFromBig(y, p.S)
					var refOut, refWit []uint64
					for _, meth := range wordMethods() {
						out := make([]uint64, p.S)
						wit := make([]uint64, p.S)
						meth.mul(w, out, a, b, wit)
						if refOut == nil {
							refOut, refWit = out, wit
							checkWitness(t, p, x, y, out, wit)
							continue
						}
						if !slices.Equal(out, refOut) || !slices.Equal(wit, refWit) {
							t.Fatalf("l=%d N=%s: %s diverges from CIOS:\n x=%s\n y=%s", l, n, meth.name, x, y)
						}
					}
				}
			}
			checkModExp(t, w, rng)
		}
	}
}

// checkModExp asserts ModExp equals math/big's Exp on edge bases and on
// exponents either side of the binary/window switch (64 and 65 bits),
// the window's all-zero and all-ones digit extremes, and a random
// exponent longer than the modulus.
func checkModExp(t *testing.T, w *Word, rng *rand.Rand) {
	t.Helper()
	n := w.Params().NBig
	one := big.NewInt(1)
	pow2 := func(k int) *big.Int { return new(big.Int).Lsh(one, uint(k)) }
	k := w.Params().L + 70
	exps := []*big.Int{
		one,
		new(big.Int).Sub(pow2(64), one),
		pow2(64),
		pow2(k - 1),
		new(big.Int).Sub(pow2(k), one),
		new(big.Int).SetBit(new(big.Int).Rand(rng, pow2(k)), k-1, 1),
	}
	bases := []*big.Int{big.NewInt(0), one, new(big.Int).Sub(n, one), new(big.Int).Rand(rng, n)}
	for _, e := range exps {
		for _, m := range bases {
			got, err := w.ModExp(m, e)
			if err != nil {
				t.Fatal(err)
			}
			if want := new(big.Int).Exp(m, e, n); got.Cmp(want) != 0 {
				t.Fatalf("l=%d: ModExp(%s, %d-bit e) = %s, want %s", w.Params().L, m, e.BitLen(), got, want)
			}
		}
	}
}

// A chain of products fed back into themselves must land on the same
// limbs under every method (stress for accumulated carry handling).
func TestWordMethodsChained(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	n := randOdd(rng, 256)
	ctx, _ := mont.NewCtx(n)
	w := NewWord(ctx)
	p := w.Params()
	a := mont.WordsFromBig(new(big.Int).Rand(rng, p.N2), p.S)
	var ref []uint64
	for _, meth := range wordMethods() {
		acc := append([]uint64(nil), a...)
		out := make([]uint64, p.S)
		for i := 0; i < 50; i++ {
			meth.mul(w, out, acc, a, nil)
			acc, out = out, acc
		}
		if ref == nil {
			ref = acc
		} else if !slices.Equal(acc, ref) {
			t.Fatalf("chained %s diverges from CIOS", meth.name)
		}
	}
}

// checkWitness asserts the exact identity T·R = x·y + M·N and T < 2N.
func checkWitness(t *testing.T, p *mont.WordParams, x, y *big.Int, out, wit []uint64) {
	t.Helper()
	tt := mont.BigFromWords(out)
	if tt.Cmp(p.N2) >= 0 {
		t.Fatalf("l=%d: T ≥ 2N for x=%s y=%s", p.L, x, y)
	}
	lhs := new(big.Int).Mul(tt, p.R)
	rhs := new(big.Int).Mul(x, y)
	rhs.Add(rhs, new(big.Int).Mul(mont.BigFromWords(wit), p.NBig))
	if lhs.Cmp(rhs) != 0 {
		t.Fatalf("l=%d: T·R ≠ x·y + M·N for x=%s y=%s", p.L, x, y)
	}
}

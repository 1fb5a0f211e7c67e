package highradix

import (
	"fmt"
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
// the reduction into one inner loop. Like Word.mul they are limb-exact:
// operands in [0, R), one carry bit above the S limbs, and one masked
// subtraction of N keyed on it; they record the quotient digits m_i in
// wit when it is non-nil and return the carry bit.
//
// The three methods agree bit for bit, digits included: m_i is the
// unique 64-bit digit that clears limb i of a·b + Σ_{j<i} m_j·N·2^(64j),
// which depends only on the low i+1 limbs of a·b + M·N, however the
// loops are scheduled.

// sosMul sets out = (a·b + M·N)/R − carry·N with the SOS method; t is
// scratch of 2·S limbs.
func sosMul(p *mont.WordParams, out, a, b, wit, t []uint64) (carry uint64) {
	s := p.S
	clear(t)
	// Multiplication phase: the full 2S-limb product a·b.
	for i := 0; i < s; i++ {
		var c uint64
		for j := 0; j < s; j++ {
			hi, lo := mulAdd(a[i], b[j], t[i+j], c)
			t[i+j] = lo
			c = hi
		}
		t[i+s] = c
	}
	// Reduction phase: clear the low S limbs one at a time. a·b + M·N <
	// R² + R·N < 2R², so at most one carry bit leaves the 2S limbs.
	for i := 0; i < s; i++ {
		m := t[i] * p.N0Inv
		if wit != nil {
			wit[i] = m
		}
		var c uint64
		for j := 0; j < s; j++ {
			hi, lo := mulAdd(m, p.N[j], t[i+j], c)
			t[i+j] = lo
			c = hi
		}
		for k := i + s; c != 0 && k < 2*s; k++ {
			t[k], c = mathbits.Add64(t[k], c, 0)
		}
		carry += c
	}
	subMasked(out, t[s:], p.N, carry)
	return carry
}

// fiosMul sets out = (a·b + M·N)/R − carry·N with the FIOS method; t is
// scratch of S+2 limbs.
func fiosMul(p *mont.WordParams, out, a, b, wit, t []uint64) (carry uint64) {
	s := p.S
	clear(t)
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
		// The running value stays below 2R, so t[S] ends every pass as
		// the single carry bit.
		sum, c1 := mathbits.Add64(t[s], carryMul, 0)
		sum, c2 := mathbits.Add64(sum, carryRed, 0)
		t[s-1] = sum
		t[s] = t[s+1] + c1 + c2
		t[s+1] = 0
	}
	subMasked(out, t[:s], p.N, t[s])
	return t[s]
}

// subMasked sets out = z − (N & −c) over len(out) limbs, discarding the
// borrow that cancels the carry bit c.
func subMasked(out, z, n []uint64, c uint64) {
	var borrow uint64
	for j := range out {
		out[j], borrow = mathbits.Sub64(z[j], n[j]&-c, borrow)
	}
}

// walterShape is the other word-level answer to the paper's
// Algorithm 2 versus Blum–Paar trade-off: S = ⌈(l+2)/64⌉ limbs, so
// R = 2^(64·S) ≥ 2^(l+2) > 4N (Walter's bound), operands and results in
// [0, 2N), and no final subtraction. It spends a whole extra limb
// whenever l+2 crosses a limb boundary, which every RSA size does. It
// is kept as the comparison point for the production shape
// (TestWalterShapeAgrees, BenchmarkWordShapes), with the same row
// operation and clearing.
type walterShape struct {
	s     int
	n     []uint64
	n0inv uint64
	r     *big.Int
	t     []uint64
}

func newWalterShape(p *mont.WordParams) *walterShape {
	s := (p.L + 2 + 63) / 64
	return &walterShape{
		s:     s,
		n:     mont.WordsFromBig(p.NBig, s),
		n0inv: p.N0Inv,
		r:     new(big.Int).Lsh(big.NewInt(1), uint(64*s)),
		t:     make([]uint64, 2*s),
	}
}

// mul sets out = (a·b + M·N)/R for a, b in [0, 2N); the result is in
// [0, 2N) too.
func (ws *walterShape) mul(out, a, b []uint64) {
	s := ws.s
	t := ws.t
	clear(t[:s])
	for i, ai := range a {
		row := t[i : i+s]
		c1 := addMulVVW(row, b, ai)
		m := row[0] * ws.n0inv
		c2 := addMulVVW(row, ws.n, m)
		// After the pass, t[i+1:i+S+1] holds a value below 2N + N < R:
		// t[i+S] is still zero and c1+c2 cannot wrap.
		t[i+s] = c1 + c2
	}
	copy(out, t[s:])
}

// mulAdd returns x·y + z + c as (hi, lo); it cannot overflow 128 bits.
func mulAdd(x, y, z, c uint64) (hi, lo uint64) {
	hi, lo = mathbits.Mul64(x, y)
	lo, c1 := mathbits.Add64(lo, z, 0)
	lo, c2 := mathbits.Add64(lo, c, 0)
	return hi + c1 + c2, lo
}

// wordMethod is one limb-level Montgomery loop under test; mul returns
// the carry bit that keyed its final subtraction.
type wordMethod struct {
	name string
	mul  func(w *Word, out, a, b, wit []uint64) uint64
}

func wordMethods() []wordMethod {
	return []wordMethod{
		{"CIOS", func(w *Word, out, a, b, wit []uint64) uint64 { return w.MulWitnessInto(out, wit, a, b) }},
		{"SOS", func(w *Word, out, a, b, wit []uint64) uint64 {
			return sosMul(w.p, out, a, b, wit, make([]uint64, 2*w.p.S))
		}},
		{"FIOS", func(w *Word, out, a, b, wit []uint64) uint64 {
			return fiosMul(w.p, out, a, b, wit, make([]uint64, w.p.S+2))
		}},
	}
}

// edgeLengths are the modulus bit lengths around limb boundaries. At
// l ≡ 0 (mod 64) the modulus fills its top limb and the final
// subtraction fires most; at l+2 ≡ 0 (mod 64) Walter's bound is tight
// (R = 2^(l+2), 4N = R − 4 for N = 2^l − 1) and the subtraction can
// never fire for operands below 2N.
var edgeLengths = []int{62, 63, 64, 65, 66, 126, 127, 128, 129, 130, 131,
	190, 191, 192, 193, 194, 253, 254, 255, 256, 257, 258,
	1022, 1023, 1024, 2046, 2047, 2048}

// edgeModuli returns the moduli swept at width l: a random one, the
// all-ones N = 2^l − 1, where the pass carry fires most, and the
// minimal top limb N = 2^(l−1) + 1.
func edgeModuli(rng *rand.Rand, l int) []*big.Int {
	one := big.NewInt(1)
	allOnes := new(big.Int).Sub(new(big.Int).Lsh(one, uint(l)), one)
	minTop := new(big.Int).Add(new(big.Int).Lsh(one, uint(l-1)), one)
	return []*big.Int{randOdd(rng, l), allOnes, minTop}
}

// SOS, FIOS and MulInto must return bit-identical products, quotient
// digits and carry bits at every limb boundary, on the [0, R) domain's
// edge operands 0, 1, N−1, N, R−1 and random ones, and the witness
// identity must hold for the product before the subtraction. ModExp —
// windowed or binary — must match math/big at every width.
func TestWordMethodsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	for _, l := range edgeLengths {
		for _, n := range edgeModuli(rng, l) {
			ctx, err := mont.NewCtx(n)
			if err != nil {
				t.Fatal(err)
			}
			w := NewWord(ctx)
			p := w.Params()
			ops := []*big.Int{
				big.NewInt(0), big.NewInt(1),
				new(big.Int).Sub(n, big.NewInt(1)), n,
				new(big.Int).Sub(p.R, big.NewInt(1)),
				new(big.Int).Rand(rng, p.R), new(big.Int).Rand(rng, p.R),
			}
			for _, x := range ops {
				for _, y := range ops {
					a := mont.WordsFromBig(x, p.S)
					b := mont.WordsFromBig(y, p.S)
					var refOut, refWit []uint64
					var refCarry uint64
					for _, meth := range wordMethods() {
						out := make([]uint64, p.S)
						wit := make([]uint64, p.S)
						carry := meth.mul(w, out, a, b, wit)
						if refOut == nil {
							refOut, refWit, refCarry = out, wit, carry
							checkWitness(t, p, x, y, out, wit, carry)
							continue
						}
						if !slices.Equal(out, refOut) || !slices.Equal(wit, refWit) || carry != refCarry {
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
	a := mont.WordsFromBig(new(big.Int).Rand(rng, p.R), p.S)
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

// checkWitness asserts the exact identity T·R = x·y + M·N for the
// product T = out + carry·N before the final subtraction, that T < R+N,
// and that the subtraction fired exactly when T ≥ R.
func checkWitness(t *testing.T, p *mont.WordParams, x, y *big.Int, out, wit []uint64, carry uint64) {
	t.Helper()
	tt := mont.BigFromWords(out)
	if carry > 1 {
		t.Fatalf("l=%d: carry %d is not a bit", p.L, carry)
	}
	if carry == 1 {
		tt.Add(tt, p.NBig)
	}
	if tt.Cmp(new(big.Int).Add(p.R, p.NBig)) >= 0 {
		t.Fatalf("l=%d: T ≥ R+N for x=%s y=%s", p.L, x, y)
	}
	if (tt.Cmp(p.R) >= 0) != (carry == 1) {
		t.Fatalf("l=%d: carry %d for T=%s against R=%s", p.L, carry, tt, p.R)
	}
	lhs := new(big.Int).Mul(tt, p.R)
	rhs := new(big.Int).Mul(x, y)
	rhs.Add(rhs, new(big.Int).Mul(mont.BigFromWords(wit), p.NBig))
	if lhs.Cmp(rhs) != 0 {
		t.Fatalf("l=%d: T·R ≠ x·y + M·N for x=%s y=%s", p.L, x, y)
	}
}

// The masked subtraction is live code: at l ≡ 0 (mod 64) random
// operands in [0, R) make it fire for every swept modulus shape. And it
// is exactly what Walter's bound removes: where R > 4N and both
// operands lie below 2N, T < 4N²/R + N < 2N < R, so it never fires.
func TestMaskedSubtraction(t *testing.T) {
	rng := rand.New(rand.NewSource(203))
	for _, l := range []int{64, 128, 256, 1024, 2048} {
		for _, n := range edgeModuli(rng, l) {
			ctx, _ := mont.NewCtx(n)
			w := NewWord(ctx)
			p := w.Params()
			out, wit := make([]uint64, p.S), make([]uint64, p.S)
			fired := 0
			for trial := 0; trial < 64; trial++ {
				x, y := new(big.Int).Rand(rng, p.R), new(big.Int).Rand(rng, p.R)
				carry := w.MulWitnessInto(out, wit, mont.WordsFromBig(x, p.S), mont.WordsFromBig(y, p.S))
				checkWitness(t, p, x, y, out, wit, carry)
				fired += int(carry)
			}
			if fired == 0 {
				t.Errorf("l=%d N=%s: the subtraction never fired in 64 products", l, n)
			}
		}
	}
	for _, l := range []int{61, 62, 126, 190, 254, 1000, 1022, 2046} {
		for _, n := range edgeModuli(rng, l) {
			ctx, _ := mont.NewCtx(n)
			w := NewWord(ctx)
			p := w.Params()
			if p.R.Cmp(new(big.Int).Lsh(n, 2)) <= 0 {
				t.Fatalf("l=%d: R ≤ 4N", l)
			}
			ops := []*big.Int{big.NewInt(0), big.NewInt(1), new(big.Int).Sub(n, big.NewInt(1)), n,
				new(big.Int).Sub(p.N2, big.NewInt(1)), new(big.Int).Rand(rng, p.N2), new(big.Int).Rand(rng, p.N2)}
			out, wit := make([]uint64, p.S), make([]uint64, p.S)
			for _, x := range ops {
				for _, y := range ops {
					if carry := w.MulWitnessInto(out, wit, mont.WordsFromBig(x, p.S), mont.WordsFromBig(y, p.S)); carry != 0 {
						t.Fatalf("l=%d N=%s: subtraction fired under Walter's bound for x=%s y=%s", l, n, x, y)
					}
				}
			}
		}
	}
}

// The Walter shape and the production limb-exact shape divide by
// different R, so their products agree as out_w·R_w ≡ out·R ≡ x·y
// (mod N). The Walter shape must also keep its own bound: every result
// below 2N for operands below 2N.
func TestWalterShapeAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(204))
	for _, l := range edgeLengths {
		for _, n := range edgeModuli(rng, l) {
			ctx, _ := mont.NewCtx(n)
			w := NewWord(ctx)
			p := w.Params()
			ws := newWalterShape(p)
			ops := []*big.Int{big.NewInt(0), big.NewInt(1), new(big.Int).Sub(n, big.NewInt(1)), n,
				new(big.Int).Sub(p.N2, big.NewInt(1)), new(big.Int).Rand(rng, p.N2)}
			out, outW := make([]uint64, p.S), make([]uint64, ws.s)
			for _, x := range ops {
				for _, y := range ops {
					ws.mul(outW, mont.WordsFromBig(x, ws.s), mont.WordsFromBig(y, ws.s))
					gotW := mont.BigFromWords(outW)
					if gotW.Cmp(p.N2) >= 0 {
						t.Fatalf("l=%d N=%s: Walter shape result ≥ 2N for x=%s y=%s", l, n, x, y)
					}
					xr, yr := new(big.Int).Mod(x, n), new(big.Int).Mod(y, n)
					w.MulInto(out, mont.WordsFromBig(xr, p.S), mont.WordsFromBig(yr, p.S))
					lhs := new(big.Int).Mul(gotW, ws.r)
					lhs.Sub(lhs, new(big.Int).Mul(mont.BigFromWords(out), p.R))
					if lhs.Mod(lhs, n).Sign() != 0 {
						t.Fatalf("l=%d N=%s: shapes disagree mod N for x=%s y=%s", l, n, x, y)
					}
				}
			}
		}
	}
}

// BenchmarkWordShapes is the radix-2^64 rerun of the paper's comparison
// against Blum–Paar: products per second for the limb-exact shape
// (S = ⌈l/64⌉, one masked subtraction) against the Walter shape
// (S = ⌈(l+2)/64⌉, no subtraction), at the widths either side of the
// RSA limb boundaries.
func BenchmarkWordShapes(b *testing.B) {
	for _, l := range []int{1022, 1024, 2046, 2048} {
		rng := rand.New(rand.NewSource(int64(l)))
		n := randOdd(rng, l)
		ctx, err := mont.NewCtx(n)
		if err != nil {
			b.Fatal(err)
		}
		w := NewWord(ctx)
		p := w.Params()
		ws := newWalterShape(p)
		x, y := new(big.Int).Rand(rng, n), new(big.Int).Rand(rng, n)
		for _, c := range []struct {
			name string
			s    int
			mul  func(out, a, b []uint64)
		}{
			{"limb-exact", p.S, w.MulInto},
			{"walter", ws.s, ws.mul},
		} {
			b.Run(fmt.Sprintf("l=%d/%s/S=%d", l, c.name, c.s), func(b *testing.B) {
				xa, ya, out := mont.WordsFromBig(x, c.s), mont.WordsFromBig(y, c.s), make([]uint64, c.s)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.mul(out, xa, ya)
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "products/s")
			})
		}
	}
}

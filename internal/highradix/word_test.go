package highradix

import (
	"errors"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/errs"
	"repro/internal/mont"
)

// The word-level CIOS loop vs math/big, across the bit lengths the
// serving stack actually handles, with the no-subtraction output bound
// held at every step.
func TestWordMulMatchesClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(601))
	for _, l := range []int{61, 128, 256, 512, 1024, 2048} {
		n := randOdd(rng, l)
		ctx, err := mont.NewCtx(n)
		if err != nil {
			t.Fatal(err)
		}
		w := NewWord(ctx)
		p := w.Params()
		if 64*p.S < l+2 {
			t.Fatalf("l=%d: S=%d violates 64·S ≥ l+2", l, p.S)
		}
		rinv := new(big.Int).ModInverse(p.R, n)
		a := make([]uint64, p.S)
		b := make([]uint64, p.S)
		out := make([]uint64, p.S)
		for trial := 0; trial < 25; trial++ {
			x := new(big.Int).Rand(rng, p.N2)
			y := new(big.Int).Rand(rng, p.N2)
			mont.WordsSetBig(a, x)
			mont.WordsSetBig(b, y)
			w.MulInto(out, a, b)
			got := mont.BigFromWords(out)
			if got.Cmp(p.N2) >= 0 {
				t.Fatalf("l=%d: output ≥ 2N", l)
			}
			want := new(big.Int).Mul(x, y)
			want.Mul(want, rinv).Mod(want, n)
			if new(big.Int).Mod(got, n).Cmp(want) != 0 {
				t.Fatalf("l=%d: word Mul wrong", l)
			}
		}
	}
}

// MulInto must tolerate out aliasing an input — the exponentiation
// ladder feeds results straight back in.
func TestWordMulAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(602))
	n := randOdd(rng, 256)
	ctx, _ := mont.NewCtx(n)
	w := NewWord(ctx)
	p := w.Params()
	a := make([]uint64, p.S)
	b := make([]uint64, p.S)
	want := make([]uint64, p.S)
	x := new(big.Int).Rand(rng, p.N2)
	y := new(big.Int).Rand(rng, p.N2)
	mont.WordsSetBig(a, x)
	mont.WordsSetBig(b, y)
	w.MulInto(want, a, b)

	got := make([]uint64, p.S)
	copy(got, a)
	w.MulInto(got, got, b) // out aliases a
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("aliased MulInto diverges")
		}
	}
	copy(got, a)
	w.MulInto(got, b, got) // out aliases b
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("aliased MulInto diverges (second operand)")
		}
	}
}

// Operands of the wrong limb count are a caller bug and must panic, not
// read or write past the context's S limbs.
func TestWordMulLimbMismatchPanics(t *testing.T) {
	ctx, _ := mont.NewCtx(big.NewInt(101))
	w := NewWord(ctx)
	defer func() {
		if recover() == nil {
			t.Error("limb count mismatch did not panic")
		}
	}()
	w.MulInto(make([]uint64, 1), make([]uint64, 1), make([]uint64, 2))
}

// The quotient witness must satisfy T·R = x·y + M·N exactly over ℤ —
// the identity internal/integrity verifies in a residue system.
func TestWordMulWitnessIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(603))
	for _, l := range []int{128, 521, 1024} {
		n := randOdd(rng, l)
		ctx, _ := mont.NewCtx(n)
		w := NewWord(ctx)
		p := w.Params()
		for trial := 0; trial < 10; trial++ {
			x := new(big.Int).Rand(rng, p.N2)
			y := new(big.Int).Rand(rng, p.N2)
			tt, m, err := w.MulWitness(x, y)
			if err != nil {
				t.Fatal(err)
			}
			lhs := new(big.Int).Mul(tt, p.R)
			rhs := new(big.Int).Mul(x, y)
			rhs.Add(rhs, new(big.Int).Mul(m, n))
			if lhs.Cmp(rhs) != 0 {
				t.Fatalf("l=%d: witness identity T·R = x·y + M·N fails", l)
			}
		}
	}
}

// Mont must preserve the paper's R = 2^(l+2) semantics (mod N) so the
// high-radix kit is a drop-in for the radix-2 path on the wire.
func TestWordMontPaperSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(604))
	for _, l := range []int{61, 256, 1024} {
		n := randOdd(rng, l)
		ctx, _ := mont.NewCtx(n)
		w := NewWord(ctx)
		for trial := 0; trial < 15; trial++ {
			x := new(big.Int).Rand(rng, ctx.N2)
			y := new(big.Int).Rand(rng, ctx.N2)
			got, err := w.Mont(x, y)
			if err != nil {
				t.Fatal(err)
			}
			if got.Sign() < 0 || got.Cmp(ctx.N2) >= 0 {
				t.Fatalf("l=%d: Mont output outside [0, 2N)", l)
			}
			want := ctx.MulClosedForm(x, y)
			if new(big.Int).Mod(got, n).Cmp(want) != 0 {
				t.Fatalf("l=%d: Mont ≢ x·y·R⁻¹ (mod N)", l)
			}
		}
	}
	// Range validation surfaces the typed sentinel.
	n := randOdd(rng, 64)
	ctx, _ := mont.NewCtx(n)
	w := NewWord(ctx)
	if _, err := w.Mont(ctx.N2, big.NewInt(1)); !errors.Is(err, errs.ErrOperandRange) {
		t.Errorf("Mont(2N, 1): got %v, want ErrOperandRange", err)
	}
}

func TestWordModExp(t *testing.T) {
	rng := rand.New(rand.NewSource(605))
	for _, l := range []int{61, 256, 1024, 2048} {
		n := randOdd(rng, l)
		ctx, _ := mont.NewCtx(n)
		w := NewWord(ctx)
		for trial := 0; trial < 5; trial++ {
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
				t.Fatalf("l=%d: word ModExp wrong", l)
			}
		}
	}
	n := randOdd(rng, 64)
	ctx, _ := mont.NewCtx(n)
	w := NewWord(ctx)
	if _, err := w.ModExp(big.NewInt(5), big.NewInt(0)); !errors.Is(err, errs.ErrOperandRange) {
		t.Errorf("zero exponent: got %v, want ErrOperandRange", err)
	}
	if _, err := w.ModExp(n, big.NewInt(3)); !errors.Is(err, errs.ErrOperandRange) {
		t.Errorf("base = N: got %v, want ErrOperandRange", err)
	}
}

// The word-slice hot loop must not allocate — this is the gate CI's
// benchmark-regression job runs.
func TestMulIntoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	n := randOdd(rng, 1024)
	ctx, _ := mont.NewCtx(n)
	w := NewWord(ctx)
	p := w.Params()
	a := make([]uint64, p.S)
	b := make([]uint64, p.S)
	out := make([]uint64, p.S)
	mont.WordsSetBig(a, new(big.Int).Rand(rng, p.N2))
	mont.WordsSetBig(b, new(big.Int).Rand(rng, p.N2))
	if avg := testing.AllocsPerRun(100, func() { w.MulInto(out, a, b) }); avg != 0 {
		t.Errorf("MulInto allocates %.1f objects/op, want 0", avg)
	}
	wit := make([]uint64, p.S)
	if avg := testing.AllocsPerRun(100, func() { w.MulWitnessInto(out, wit, a, b) }); avg != 0 {
		t.Errorf("MulWitnessInto allocates %.1f objects/op, want 0", avg)
	}
}

// After its first call (which builds the window table on a long
// exponent), ModExp allocates only the conversion of its result, on both
// sides of the binary/window switch.
func TestModExpAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(607))
	n := randOdd(rng, 1024)
	ctx, _ := mont.NewCtx(n)
	w := NewWord(ctx)
	m := new(big.Int).Rand(rng, n)
	conv := testing.AllocsPerRun(20, func() { mont.BigFromWords(w.u) })
	for _, e := range []*big.Int{big.NewInt(65537), new(big.Int).Rand(rng, n)} {
		if _, err := w.ModExp(m, e); err != nil {
			t.Fatal(err)
		}
		if avg := testing.AllocsPerRun(20, func() { w.ModExp(m, e) }); avg > conv {
			t.Errorf("ModExp with a %d-bit exponent allocates %.1f objects/op, want ≤ %.1f (the result conversion)",
				e.BitLen(), avg, conv)
		}
	}
}

// Every exponent of one length over 64 bits runs the same product
// sequence: the 30-product table, then five squarings and one multiply
// per window below the top one, whatever the digits. 2^(k−1) (every
// window digit but the top one is 0) and 2^k − 1 (every digit is 31) are
// the extremes; a random k-bit exponent sits between them. At 64 bits
// and below, ModExp runs the binary ladder, whose schedule follows the
// bits: squares for every bit below the MSB, a multiply per set one.
func TestWordModExpConstantSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(608))
	n := randOdd(rng, 512)
	ctx, _ := mont.NewCtx(n)
	w := NewWord(ctx)
	var sched []bool
	// A product whose second operand is acc itself is a squaring.
	w.onProduct = func(b []uint64) { sched = append(sched, &b[0] == &w.acc[0]) }
	run := func(e *big.Int) []bool {
		t.Helper()
		sched = sched[:0]
		m := new(big.Int).Rand(rng, n)
		got, err := w.ModExp(m, e)
		if err != nil {
			t.Fatal(err)
		}
		if want := new(big.Int).Exp(m, e, n); got.Cmp(want) != 0 {
			t.Fatalf("%d-bit e: ModExp wrong", e.BitLen())
		}
		return slices.Clone(sched)
	}
	one := big.NewInt(1)
	for _, k := range []int{65, 66, 69, 70, 71, 128, 1088} {
		lo := new(big.Int).Lsh(one, uint(k-1))
		hi := new(big.Int).Sub(new(big.Int).Lsh(one, uint(k)), one)
		mid := new(big.Int).SetBit(new(big.Int).Rand(rng, lo), k-1, 1)
		want := run(lo)
		if nw := (k + winBits - 1) / winBits; len(want) != 6*(nw-1) {
			t.Fatalf("k=%d: %d products, want 6 per window below the top (%d)", k, len(want), 6*(nw-1))
		}
		for i, sqr := range want {
			if sqr != (i%6 != 5) {
				t.Fatalf("k=%d: product %d is not in the 5-square-1-multiply pattern", k, i)
			}
		}
		for _, e := range []*big.Int{hi, mid} {
			if got := run(e); !slices.Equal(got, want) {
				t.Fatalf("k=%d: schedule of %x differs from 2^(k-1)'s", k, e)
			}
		}
	}
	for _, e := range []*big.Int{big.NewInt(3), big.NewInt(65537), new(big.Int).SetUint64(1<<63 | 5)} {
		got := run(e)
		squares, muls := 0, 0
		for _, sqr := range got {
			if sqr {
				squares++
			} else {
				muls++
			}
		}
		weight := 0
		for i := 0; i < e.BitLen(); i++ {
			weight += int(e.Bit(i))
		}
		if squares != e.BitLen()-1 || muls != weight-1 {
			t.Fatalf("e=%s: %d squares and %d multiplies, Algorithm 3 runs %d and %d",
				e, squares, muls, e.BitLen()-1, weight-1)
		}
	}
}

func benchWord(bits int) (*Word, []uint64, []uint64, []uint64) {
	rng := rand.New(rand.NewSource(int64(bits)))
	n := randOdd(rng, bits)
	ctx, err := mont.NewCtx(n)
	if err != nil {
		panic(err)
	}
	w := NewWord(ctx)
	p := w.Params()
	a := make([]uint64, p.S)
	b := make([]uint64, p.S)
	out := make([]uint64, p.S)
	mont.WordsSetBig(a, new(big.Int).Rand(rng, p.N2))
	mont.WordsSetBig(b, new(big.Int).Rand(rng, p.N2))
	return w, a, b, out
}

func BenchmarkWordMul1024(b *testing.B) {
	w, x, y, out := benchWord(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.MulInto(out, x, y)
	}
}

func BenchmarkWordMul2048(b *testing.B) {
	w, x, y, out := benchWord(2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.MulInto(out, x, y)
	}
}

// BenchmarkWordMethods compares the Koç-taxonomy word-level Montgomery
// loops (CIOS — the production Word.mul — against the SOS and FIOS
// ablations in methods_test.go) at RSA-1024 scale.
func BenchmarkWordMethods(b *testing.B) {
	w, x, y, out := benchWord(1024)
	s := w.p.S
	b.Run("CIOS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w.MulInto(out, x, y)
		}
	})
	b.Run("SOS", func(b *testing.B) {
		t := make([]uint64, 2*s)
		for i := 0; i < b.N; i++ {
			sosMul(w.p, out, x, y, nil, t)
		}
	})
	b.Run("FIOS", func(b *testing.B) {
		t := make([]uint64, s+2)
		for i := 0; i < b.N; i++ {
			fiosMul(w.p, out, x, y, nil, t)
		}
	})
}

func benchModExp(b *testing.B, bits int) {
	rng := rand.New(rand.NewSource(int64(bits)))
	n := randOdd(rng, bits)
	ctx, err := mont.NewCtx(n)
	if err != nil {
		b.Fatal(err)
	}
	w := NewWord(ctx)
	m := new(big.Int).Rand(rng, n)
	e := new(big.Int).Rand(rng, n)
	if e.Sign() == 0 {
		e.SetInt64(3)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.ModExp(m, e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWordModExp1024(b *testing.B) { benchModExp(b, 1024) }
func BenchmarkWordModExp2048(b *testing.B) { benchModExp(b, 2048) }

package highradix

import (
	"fmt"
	"math/big"
	mathbits "math/bits"

	"repro/internal/errs"
	"repro/internal/mont"
)

// Word is the production radix-2^64 Montgomery multiplier and
// exponentiator — the compute kit the engine selects when raw modexp
// throughput matters more than cycle-accurate fidelity. It is the
// word-level CIOS (Coarsely Integrated Operand Scanning) realization of
// the paper's §2 radix-2^α discussion at α = 64: one 64-bit digit of x
// is consumed per pass where the systolic array consumes one bit per
// two clocks, and the quotient digit costs the full N' = -N⁻¹ mod 2^64
// multiply the radix-2 design erased.
//
// One property is re-priced and one carries over from the paper's
// bit-serial design:
//
//   - One masked subtraction, one limb fewer. The paper's Algorithm 2
//     runs one iteration more than Blum–Paar to drop the final
//     subtraction, which at radix 2 costs one bit. At radix 2^64 the
//     same choice (R > 4N, S = ⌈(l+2)/64⌉) costs a whole limb row per
//     pass at every RSA size, so Word is limb-exact instead: S =
//     ⌈l/64⌉ limbs (mont.WordParams), values in [0, R), and each
//     product ends with t − (N & −carry), one branch-free masked
//     subtraction keyed on the pass carry-out.
//
//   - Carry-save accumulation inside the word loop. The systolic PE
//     keeps its running sum as (carry, sum) pairs that never propagate
//     across the array within a cycle; the software analogue is the row
//     operation addMulVVW (z += x·y, math/big's assembly on 64-bit
//     GOARCHes), where each step retires one limb and hands at most one
//     carry limb to the next — the carries never ripple across the full
//     accumulator inside a pass.
//
// ModExp runs a 5-bit fixed window with a constant product schedule for
// exponents over 64 bits, and binary square-and-multiply (the paper's
// Algorithm 3) for shorter ones.
//
// A Word owns mutable scratch buffers, so — exactly like the simulated
// circuit it stands beside — it is NOT safe for concurrent use: one Word
// per goroutine, sharing the immutable *mont.WordParams underneath.
// This is the same ownership split internal/engine applies to every kit.
type Word struct {
	p *mont.WordParams

	// Scratch, sized at construction so the hot loops never allocate.
	t    []uint64 // 2S-limb product accumulator
	u    []uint64 // intermediate product (Mont two-step, ladder)
	am   []uint64 // base in the Montgomery domain
	acc  []uint64 // running ladder value
	tmp  []uint64 // ladder swap partner
	one  []uint64 // the constant 1
	xbuf []uint64 // operand conversion buffers
	ybuf []uint64

	// table holds the window powers am^0..am^31, one S-limb row each. It
	// is allocated on the first exponent longer than 64 bits, so Words
	// that only ever see short exponents (F4) never pay for it.
	table []uint64

	// onProduct, when set, observes the second operand of every product
	// the exponentiation loop runs (acc itself for a squaring); tests use
	// it to check the schedule.
	onProduct func(b []uint64)
}

const (
	winBits = 5            // fixed-window width for long exponents
	winRows = 1 << winBits // table rows: am^0 .. am^31
	// binaryMaxBits is the longest exponent ModExp runs by binary
	// square-and-multiply. It separates public exponents such as F4 =
	// 2^16+1 (16 squares and one multiply, where a 30-product table would
	// dominate) from secret CRT-sized ones of 1000+ bits; nothing served
	// falls between. It is not a measured break-even.
	binaryMaxBits = 64
)

// NewWord builds the radix-2^64 kit over an existing Montgomery
// context, sharing its cached word-level precompute (first call per Ctx
// pays one inversion and two reductions; every later Word is
// allocation-only).
func NewWord(ctx *mont.Ctx) *Word {
	p := ctx.Word()
	w := &Word{
		p:    p,
		t:    make([]uint64, 2*p.S),
		u:    make([]uint64, p.S),
		am:   make([]uint64, p.S),
		acc:  make([]uint64, p.S),
		tmp:  make([]uint64, p.S),
		one:  make([]uint64, p.S),
		xbuf: make([]uint64, p.S),
		ybuf: make([]uint64, p.S),
	}
	w.one[0] = 1
	return w
}

// Params exposes the shared word-level precompute.
func (w *Word) Params() *mont.WordParams { return w.p }

// MulInto sets out = a·b·R⁻¹ mod N with R = 2^(64·S), the word-serial
// CIOS loop: operands and result live in [0, R), so out may be fed
// straight back in. out, a and b must each have S limbs; out may alias a
// or b (the product accumulates in scratch and is copied out last). The
// loop allocates nothing — CI gates this with testing.AllocsPerRun.
//
// The result is below 2N whenever one operand is below N, but it is
// not canonical in general; ModExp and Mont canonicalize once, at the
// edge.
func (w *Word) MulInto(out, a, b []uint64) {
	w.mul(out, a, b, nil)
}

// MulWitnessInto is MulInto with a receipt: wit receives the S quotient
// digits m_i (little-endian limbs), tying the product to its inputs over
// the integers:
//
//	T·R = a·b + M·N   with M = Σ m_i·2^(64·i),  T = out + carry·N
//
// T is the value before the final masked subtraction, and carry (0 or
// 1) reports whether the subtraction fired. The kernel tests check the
// identity exactly over ℤ on T unchanged — the m_i words are what a
// radix-2^α array would broadcast where the paper's Fig. 1 cells
// broadcast the m_i bits.
func (w *Word) MulWitnessInto(out, wit, a, b []uint64) (carry uint64) {
	return w.mul(out, a, b, wit)
}

// mul is the CIOS hot loop. Pass i adds a_i·b into the row window
// t[i:i+S], derives the quotient digit m = t_i·N' mod 2^64 that clears
// limb i, and adds m·N into the same window: two addMulVVW row
// operations. Advancing the window one limb per pass is the division by
// 2^64 — the array's one-cell-right shift, done by indexing instead of
// moving data — so after S passes the product sits in t[S:2S], with
// its 2^(64·S) bit in the returned carry.
func (w *Word) mul(out, a, b, wit []uint64) (carry uint64) {
	p := w.p
	s := p.S
	if len(out) != s || len(a) != s || len(b) != s {
		panic("highradix: MulInto operand limb count mismatch")
	}
	t := w.t
	// Pass i writes t[i+S] before any later pass reads it, so only the
	// first window needs clearing.
	clear(t[:s])
	var c uint64
	for i, ai := range a {
		row := t[i : i+s]
		c1 := addMulVVW(row, b, ai)
		m := row[0] * p.N0Inv
		if wit != nil {
			wit[i] = m
		}
		c2 := addMulVVW(row, p.N, m)
		// After the pass, t[i+1:i+S+1] plus c·2^(64·S) holds
		// (Σ_{j≤i} a_j·2^(64j)·b + M_i·N)/2^(64(i+1)) < b + N < 2R: one
		// carry bit above the window, which c1 + c2 + c carries over.
		top, cx := mathbits.Add64(c1, c2, 0)
		top, cy := mathbits.Add64(top, c, 0)
		t[i+s] = top
		c = cx | cy
	}
	// a, b < R give T = (a·b + M·N)/R < R + N. When T ≥ R (c = 1), T − N
	// < R fits S limbs; the borrow out of the top limb cancels c.
	z := t[s:]
	n := p.N[:len(z)]
	out = out[:len(z)]
	mask := -c
	var borrow uint64
	for j, zj := range z {
		out[j], borrow = mathbits.Sub64(zj, n[j]&mask, borrow)
	}
	return c
}

// reduce sets v = v − N when v ≥ N, without branching on v: the one
// canonicalizing subtraction for a v in [0, 2N), off the hot loop.
func (w *Word) reduce(v []uint64) {
	n := w.p.N[:len(v)]
	var borrow uint64
	for j, vj := range v {
		_, borrow = mathbits.Sub64(vj, n[j], borrow)
	}
	mask := borrow - 1 // all-ones when v ≥ N
	borrow = 0
	for j, vj := range v {
		v[j], borrow = mathbits.Sub64(vj, n[j]&mask, borrow)
	}
}

// Mont computes x·y·2^-(l+2) mod N — the same mathematical function as
// the paper's Algorithm 2 (mod N; Algorithm 2's representative in
// [0, 2N) may differ from this one by N) — via two word-level products:
// the first divides by the word-aligned R = 2^(64·S), the second
// multiplies by the precomputed Adj = 2^(2·64·S-(l+2)) mod N, leaving
// exactly the 2^(l+2) divided out. Operands must lie in [0, 2N-1], the
// paper's domain; they are reduced below N on entry, and the result is
// canonical in [0, N).
func (w *Word) Mont(x, y *big.Int) (*big.Int, error) {
	if x.Sign() < 0 || x.Cmp(w.p.N2) >= 0 || y.Sign() < 0 || y.Cmp(w.p.N2) >= 0 {
		return nil, fmt.Errorf("highradix: Mont operands must be in [0, 2N-1]: %w", errs.ErrOperandRange)
	}
	w.setReduced(w.xbuf, x)
	w.setReduced(w.ybuf, y)
	w.mul(w.u, w.xbuf, w.ybuf, nil)
	// Adj < N bounds the second product below 2N.
	w.mul(w.tmp, w.u, w.p.Adj, nil)
	w.reduce(w.tmp)
	return mont.BigFromWords(w.tmp), nil
}

// setReduced loads x mod N into out for an x in [0, 2N): 2N−1 may not
// fit S limbs, so the subtraction happens on the big.Int side.
func (w *Word) setReduced(out []uint64, x *big.Int) {
	if x.Cmp(w.p.NBig) >= 0 {
		x = new(big.Int).Sub(x, w.p.NBig)
	}
	mont.WordsSetBig(out, x)
}

// ModExp computes m^e mod N entirely in the word domain, conversions
// only at the edges. m must lie in [0, N-1]; e must be positive. The
// result is canonical in [0, N).
//
// Exponents over 64 bits run a 5-bit fixed window whose product
// schedule depends only on e's bit length: a table of am^0..am^31, then
// per window five squarings and one multiply — by am^0 when the digit is
// 0 — with the table row picked by a masked scan of all 32 rows rather
// than by indexing (the fixed-schedule countermeasure of arXiv
// 2009.03468). Exponents of 64 bits or fewer (F4 and friends) run
// left-to-right binary square-and-multiply, the paper's Algorithm 3,
// where a table would cost more than it saves.
func (w *Word) ModExp(m, e *big.Int) (*big.Int, error) {
	if e.Sign() <= 0 {
		return nil, fmt.Errorf("highradix: exponent must be positive: %w", errs.ErrOperandRange)
	}
	if m.Sign() < 0 || m.Cmp(w.p.NBig) >= 0 {
		return nil, fmt.Errorf("highradix: base must be in [0, N-1]: %w", errs.ErrOperandRange)
	}
	mont.WordsSetBig(w.xbuf, m)
	// Enter the domain: am = m·R mod N, below 2N since m < N.
	w.mul(w.am, w.xbuf, w.p.RR, nil)
	if e.BitLen() > binaryMaxBits {
		w.expWindow(e)
	} else {
		w.expBinary(e)
	}
	// Leave the domain: Mont(acc, 1) = (acc + M·N)/R ≤ N, then one
	// branch-free canonicalizing subtraction — off the hot loop, as in §3.
	w.mul(w.u, w.acc, w.one, nil)
	w.reduce(w.u)
	return mont.BigFromWords(w.u), nil
}

// expBinary sets acc = am^e by left-to-right square-and-multiply.
func (w *Word) expBinary(e *big.Int) {
	copy(w.acc, w.am)
	for i := e.BitLen() - 2; i >= 0; i-- {
		w.step(w.acc)
		if e.Bit(i) == 1 {
			w.step(w.am)
		}
	}
}

// expWindow sets acc = am^e with the 5-bit fixed window. Windows are
// aligned to bit 0; the top one seeds acc with no product.
func (w *Word) expWindow(e *big.Int) {
	s := w.p.S
	if w.table == nil {
		w.table = make([]uint64, winRows*s)
	}
	row := func(r int) []uint64 { return w.table[r*s : (r+1)*s] }
	w.mul(row(0), w.one, w.p.RR, nil) // am^0 = R mod N, below 2N
	copy(row(1), w.am)
	for r := 2; r < winRows; r++ {
		w.mul(row(r), row(r-1), w.am, nil)
	}
	nw := (e.BitLen() + winBits - 1) / winBits
	w.selectRow(w.acc, window(e, nw-1))
	for i := nw - 2; i >= 0; i-- {
		for j := 0; j < winBits; j++ {
			w.step(w.acc)
		}
		w.selectRow(w.u, window(e, i))
		w.step(w.u)
	}
}

// step sets acc = acc·b·R⁻¹; passing acc itself squares. It is the one
// product both exponentiation schedules run, so onProduct sees them all.
func (w *Word) step(b []uint64) {
	if w.onProduct != nil {
		w.onProduct(b)
	}
	w.mul(w.tmp, w.acc, b, nil)
	w.acc, w.tmp = w.tmp, w.acc
}

// window returns bits [5i, 5i+5) of e.
func window(e *big.Int, i int) uint64 {
	var d uint64
	for b := winBits - 1; b >= 0; b-- {
		d = d<<1 | uint64(e.Bit(winBits*i+b))
	}
	return d
}

// selectRow copies table row d into out by reading every row and
// keeping one under a mask, so the memory access pattern does not
// depend on d. The scan runs four limbs at a time across all rows, so
// the four output limbs stay in registers instead of being reloaded and
// stored once per row.
func (w *Word) selectRow(out []uint64, d uint64) {
	s := len(out)
	tab := w.table[:winRows*s]
	j := 0
	for ; j+4 <= s; j += 4 {
		var o0, o1, o2, o3 uint64
		for r := 0; r < winRows; r++ {
			mask := rowMask(r, d)
			row := tab[r*s+j : r*s+j+4 : r*s+j+4]
			o0 |= row[0] & mask
			o1 |= row[1] & mask
			o2 |= row[2] & mask
			o3 |= row[3] & mask
		}
		out[j], out[j+1], out[j+2], out[j+3] = o0, o1, o2, o3
	}
	for ; j < s; j++ {
		var o uint64
		for r := 0; r < winRows; r++ {
			o |= tab[r*s+j] & rowMask(r, d)
		}
		out[j] = o
	}
}

// rowMask is all-ones exactly when r == d: r^d is 0 only then, and
// (x-1)>>63 is 1 only for x = 0 (both are < 2^63).
func rowMask(r int, d uint64) uint64 {
	return -(((uint64(r) ^ d) - 1) >> 63)
}

// MulWitness is the big.Int face of MulWitnessInto for operands in
// [0, R), returning the product T before the final subtraction and the
// witness M, so tests can check T·R = x·y + M·N over ℤ
// (R = 2^(64·S)). T lies in [0, R+N).
func (w *Word) MulWitness(x, y *big.Int) (t, m *big.Int, err error) {
	if x.Sign() < 0 || x.Cmp(w.p.R) >= 0 || y.Sign() < 0 || y.Cmp(w.p.R) >= 0 {
		return nil, nil, fmt.Errorf("highradix: MulWitness operands must be in [0, R): %w", errs.ErrOperandRange)
	}
	mont.WordsSetBig(w.xbuf, x)
	mont.WordsSetBig(w.ybuf, y)
	wit := make([]uint64, w.p.S)
	carry := w.MulWitnessInto(w.u, wit, w.xbuf, w.ybuf)
	t = mont.BigFromWords(w.u)
	if carry != 0 {
		t.Add(t, w.p.NBig)
	}
	return t, mont.BigFromWords(wit), nil
}

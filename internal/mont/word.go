package mont

import (
	"math/big"
)

// WordParams is the word-level (radix-2^64) precompute for one modulus:
// everything the high-radix CIOS fast path (internal/highradix.Word)
// needs that depends only on N. It generalizes the paper's host-side
// pre-processing — where the radix-2 design needs R² mod N and nothing
// else (N' degenerates to 1 at α = 1, §2), the radix-2^α design pays for
// the full N' = -N⁻¹ mod 2^α inverse and an R² against a word-aligned R.
//
// The limb count S is the smallest with 64·S ≥ l, so the word-level
// Montgomery parameter R = 2^(64·S) > N spends no limb beyond the
// modulus — the same limb count as math/big. Operands and results live
// in [0, R); each product ends in one branch-free masked subtraction of
// N instead of the extra limb Walter's no-subtraction bound R > 4N
// would cost at every RSA size (l+2 crosses a limb boundary whenever
// l ≡ 0 mod 64). At radix 2 the paper's Algorithm 2 buys the
// subtraction away with one more one-bit iteration; at radix 2^64 that
// iteration is a whole limb row per pass, so the trade flips.
//
// A WordParams is immutable after construction and safe to share across
// goroutines; obtain one from Ctx.Word, which builds it lazily once per
// context and caches it.
type WordParams struct {
	L     int      // modulus bit length
	S     int      // limb count: smallest S with 64·S ≥ L (⇒ R > N)
	N     []uint64 // modulus, S limbs little-endian
	N0Inv uint64   // -N⁻¹ mod 2^64 (the α=64 quotient constant N')
	RR    []uint64 // R² mod N with R = 2^(64·S), S limbs
	Adj   []uint64 // 2^(2·64·S - (L+2)) mod N: word-R → paper-R conversion

	R    *big.Int // 2^(64·S)
	NBig *big.Int // the modulus (shared with the owning Ctx; immutable)
	N2   *big.Int // 2N, the bound of Word.Mont's paper-domain operands
}

// Word returns the word-level precompute for this context, building it
// on first use. The result is cached on the Ctx — one inversion and two
// reductions per modulus, ever — and is immutable, so it is safe to
// call from every worker core sharing the Ctx.
func (c *Ctx) Word() *WordParams {
	c.wordOnce.Do(func() { c.word = newWordParams(c) })
	return c.word
}

func newWordParams(c *Ctx) *WordParams {
	s := (c.L + 63) / 64
	r := new(big.Int).Lsh(big.NewInt(1), uint(64*s))
	rr := new(big.Int).Mul(r, r)
	rr.Mod(rr, c.N)
	// Adj converts a word-R Montgomery product chain back to the paper's
	// R = 2^(l+2) semantics: Mul_w(Mul_w(x, y), Adj) ≡ x·y·2^-(l+2)
	// (mod N), since the two word-level divisions by 2^(64·S) are
	// cancelled by Adj's 2^(2·64·S) up to the 2^(l+2) the paper divides
	// out.
	adj := new(big.Int).Lsh(big.NewInt(1), uint(2*64*s-(c.L+2)))
	adj.Mod(adj, c.N)
	p := &WordParams{
		L:    c.L,
		S:    s,
		N:    WordsFromBig(c.N, s),
		RR:   WordsFromBig(rr, s),
		Adj:  WordsFromBig(adj, s),
		R:    r,
		NBig: c.N,
		N2:   c.N2,
	}
	p.N0Inv = negInvMod64(p.N[0])
	return p
}

// negInvMod64 returns -n⁻¹ mod 2^64 for odd n, by Hensel lifting.
// n·n ≡ 1 (mod 8) for odd n, so n is its own inverse to 3 bits; five
// Newton steps inv ← inv·(2 − n·inv) double that to 96 ≥ 64 bits.
func negInvMod64(n uint64) uint64 {
	inv := n
	for i := 0; i < 5; i++ {
		inv *= 2 - n*inv
	}
	return -inv
}

// WordsFromBig renders x into s little-endian 64-bit limbs. It panics
// if x is negative or does not fit — a bound violation by the caller.
func WordsFromBig(x *big.Int, s int) []uint64 {
	if x.Sign() < 0 {
		panic("mont: WordsFromBig of negative value")
	}
	if x.BitLen() > 64*s {
		panic("mont: WordsFromBig value does not fit")
	}
	out := make([]uint64, s)
	WordsSetBig(out, x)
	return out
}

// WordsSetBig fills out (little-endian limbs) with x, zero-padding the
// top. It panics if x is negative or does not fit — the allocation-free
// twin of WordsFromBig for hot-path callers with reusable buffers.
func WordsSetBig(out []uint64, x *big.Int) {
	if x.Sign() < 0 || x.BitLen() > 64*len(out) {
		panic("mont: WordsSetBig value out of range")
	}
	for i := range out {
		out[i] = 0
	}
	for i, w := range x.Bits() {
		if bigWordBits == 64 {
			out[i] = uint64(w)
		} else {
			out[i/2] |= uint64(w) << (32 * uint(i%2))
		}
	}
}

// BigFromWords converts little-endian limbs back to a big.Int.
func BigFromWords(v []uint64) *big.Int {
	buf := make([]byte, 8*len(v))
	for i, l := range v {
		for b := 0; b < 8; b++ {
			buf[len(buf)-1-(8*i+b)] = byte(l >> (8 * b))
		}
	}
	return new(big.Int).SetBytes(buf)
}

const bigWordBits = 32 << (^big.Word(0) >> 63)

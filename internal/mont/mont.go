// Package mont implements Montgomery modular multiplication exactly as
// specified in the paper: Algorithm 1 (the textbook form with a final
// subtraction, generic word base 2^α) and Algorithm 2 (the radix-2 form
// without a final subtraction that the systolic array realizes, using
// Walter's bound R = 2^(l+2) > 4N).
//
// These routines are the mathematical ground truth for the hardware
// models: the behavioural and gate-level simulations in internal/systolic
// and internal/mmmc are tested bit-for-bit against this package, and this
// package in turn is property-tested against math/big.
package mont

import (
	"errors"
	"fmt"
	"math/big"
	"sync"

	"repro/internal/errs"
)

// Ctx carries the per-modulus constants of the paper's radix-2 scheme.
//
// For an l-bit odd modulus N the Montgomery parameter is fixed at
// R = 2^(l+2), the smallest power of two satisfying Walter's no-final-
// subtraction bound R > 4N. Operands of Mul live in [0, 2N-1] and so does
// its result, which is what lets exponentiation chain multiplications with
// no conditional reduction — the property the paper's hardware exploits.
type Ctx struct {
	N *big.Int // the odd modulus
	L int      // bit length of N
	R *big.Int // Montgomery parameter, 2^(L+2)

	RR   *big.Int // R² mod N, used to enter the Montgomery domain
	RInv *big.Int // R⁻¹ mod N, used by the closed-form reference
	N2   *big.Int // 2N, the operand/result bound

	// Word-level (radix-2^64) precompute, built lazily by Word and
	// cached; sync.Once keeps the Ctx safe for concurrent use.
	wordOnce sync.Once
	word     *WordParams
}

// ErrEvenModulus is returned for moduli with gcd(N, 2) ≠ 1, which
// Montgomery's method cannot handle in radix 2. It is the sentinel from
// internal/errs, so errors.Is works across every layer of the system.
var ErrEvenModulus = errs.ErrEvenModulus

// ErrModulusTooSmall is returned for moduli below 3.
var ErrModulusTooSmall = errs.ErrModulusTooSmall

// NewCtx validates N and precomputes the Montgomery constants.
//
// A Ctx is immutable after NewCtx returns and is safe for concurrent
// use by multiple goroutines; internal/engine relies on this to share
// one cached Ctx across its worker cores.
func NewCtx(n *big.Int) (*Ctx, error) {
	if n.Sign() <= 0 || n.Cmp(big.NewInt(3)) < 0 {
		return nil, ErrModulusTooSmall
	}
	if n.Bit(0) == 0 {
		return nil, ErrEvenModulus
	}
	l := n.BitLen()
	r := new(big.Int).Lsh(big.NewInt(1), uint(l+2))
	rinv := new(big.Int).ModInverse(r, n)
	if rinv == nil {
		return nil, fmt.Errorf("mont: R = 2^%d not invertible mod N", l+2)
	}
	rr := new(big.Int).Mul(r, r)
	rr.Mod(rr, n)
	return &Ctx{
		N:    new(big.Int).Set(n),
		L:    l,
		R:    r,
		RR:   rr,
		RInv: rinv,
		N2:   new(big.Int).Lsh(n, 1),
	}, nil
}

// Iterations returns the number of loop iterations of Algorithm 2,
// l + 2 — the quantity the paper contrasts with Blum–Paar's l + 3.
func (c *Ctx) Iterations() int { return c.L + 2 }

// Mul computes Mont(x, y) = x·y·R⁻¹ mod 2N with Algorithm 2: the radix-2
// interleaved loop with no final subtraction. Inputs must lie in
// [0, 2N-1]; the output is again in [0, 2N-1].
func (c *Ctx) Mul(x, y *big.Int) *big.Int {
	c.checkOperand("x", x)
	c.checkOperand("y", y)
	t := new(big.Int)
	xiy := new(big.Int)
	for i := 0; i <= c.L+1; i++ {
		// m_i = (t_0 + x_i·y_0) mod 2
		mi := (t.Bit(0) + x.Bit(i)*y.Bit(0)) & 1
		// T = (T + x_i·y + m_i·N) / 2
		if x.Bit(i) == 1 {
			t.Add(t, xiy.Set(y))
		}
		if mi == 1 {
			t.Add(t, c.N)
		}
		t.Rsh(t, 1)
	}
	return t
}

// MulClosedForm computes x·y·R⁻¹ mod N directly with math/big. It is the
// oracle that Mul (and everything stacked on Mul) is verified against:
// Mul's result taken mod N must equal MulClosedForm.
func (c *Ctx) MulClosedForm(x, y *big.Int) *big.Int {
	t := new(big.Int).Mul(x, y)
	t.Mul(t, c.RInv)
	return t.Mod(t, c.N)
}

// ToMont maps x ∈ [0, N-1] to its Montgomery representation
// xR mod 2N (< 2N), via Mont(x, R² mod N).
func (c *Ctx) ToMont(x *big.Int) *big.Int {
	return c.Mul(x, c.RR)
}

// FromMont maps a Montgomery-domain value back to the integer domain via
// Mont(t, 1). Per the paper (§3) the result is ≤ N, and < N whenever the
// value is not ≡ 0 mod N; callers that require a canonical representative
// should still reduce mod N, which Reduce does.
func (c *Ctx) FromMont(t *big.Int) *big.Int {
	return c.Mul(t, big.NewInt(1))
}

// Reduce returns v mod N. The hardware never performs this operation —
// that is the point of the paper — but host-side callers use it to
// canonicalize final results.
func (c *Ctx) Reduce(v *big.Int) *big.Int {
	return new(big.Int).Mod(v, c.N)
}

func (c *Ctx) checkOperand(name string, v *big.Int) {
	if v.Sign() < 0 || v.Cmp(c.N2) >= 0 {
		panic(fmt.Sprintf("mont: operand %s = %s outside [0, 2N-1]", name, v))
	}
}

// Algorithm1 is the paper's Algorithm 1: Montgomery multiplication in
// word base b = 2^alpha with the classical final subtraction. Inputs must
// lie in [0, N-1]; so does the output. It exists as a baseline (the form
// Blum–Paar-style designs must implement) and as a cross-check for the
// improved Algorithm 2.
func Algorithm1(x, y, n *big.Int, alpha uint) (*big.Int, error) {
	if alpha == 0 {
		return nil, errors.New("mont: word size alpha must be positive")
	}
	if n.Bit(0) == 0 {
		return nil, ErrEvenModulus
	}
	if x.Sign() < 0 || x.Cmp(n) >= 0 || y.Sign() < 0 || y.Cmp(n) >= 0 {
		return nil, errors.New("mont: Algorithm 1 requires operands in [0, N-1]")
	}
	base := new(big.Int).Lsh(big.NewInt(1), alpha) // b = 2^alpha
	baseMask := new(big.Int).Sub(base, big.NewInt(1))

	// l = number of base-b digits of N; R = b^l.
	l := (n.BitLen() + int(alpha) - 1) / int(alpha)

	nPrime, err := NPrime(n, alpha)
	if err != nil {
		return nil, err
	}

	t := new(big.Int)
	tmp := new(big.Int)
	for i := 0; i < l; i++ {
		// m_i = (t_0 + x_i·y_0)·N' mod b
		xi := digit(x, i, alpha, baseMask)
		t0 := tmp.And(t, baseMask)
		mi := new(big.Int).Mul(xi, digit(y, 0, alpha, baseMask))
		mi.Add(mi, t0)
		mi.Mul(mi, nPrime)
		mi.And(mi, baseMask)
		// T = (T + x_i·y + m_i·N) / b
		t.Add(t, tmp.Mul(xi, y))
		t.Add(t, tmp.Mul(mi, n))
		t.Rsh(t, alpha)
	}
	if t.Cmp(n) >= 0 {
		t.Sub(t, n)
	}
	return t, nil
}

// digit extracts the i-th base-2^alpha digit of x.
func digit(x *big.Int, i int, alpha uint, mask *big.Int) *big.Int {
	d := new(big.Int).Rsh(x, uint(i)*alpha)
	return d.And(d, mask)
}

// NPrime computes N' = -N⁻¹ mod 2^alpha by Hensel lifting (the standard
// Dussé–Kaliski iteration), without math/big's ModInverse, so the
// computation matches what a hardware pre-processor would do. For odd N
// the inverse always exists. For alpha = 1 this returns 1, the fact the
// paper uses to drop the N' multiplication entirely.
func NPrime(n *big.Int, alpha uint) (*big.Int, error) {
	if n.Bit(0) == 0 {
		return nil, ErrEvenModulus
	}
	// inv = N^-1 mod 2^k doubling k each round: inv <- inv·(2 - N·inv).
	inv := big.NewInt(1) // N^-1 mod 2
	two := big.NewInt(2)
	tmp := new(big.Int)
	for k := uint(1); k < alpha; k *= 2 {
		bitsNow := 2 * k
		if bitsNow > alpha {
			bitsNow = alpha
		}
		mask := tmp.Lsh(big.NewInt(1), bitsNow)
		mask = new(big.Int).Sub(mask, big.NewInt(1))
		t := new(big.Int).Mul(n, inv)
		t.Sub(two, t)
		inv.Mul(inv, t)
		inv.And(inv, mask)
	}
	// N' = -inv mod 2^alpha
	mod := new(big.Int).Lsh(big.NewInt(1), alpha)
	np := new(big.Int).Neg(inv)
	np.Mod(np, mod)
	return np, nil
}

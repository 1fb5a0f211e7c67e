// Package integrity provides the per-operation result checks behind
// the engine's end-to-end "no wrong answer ever leaves the process"
// guarantee — the software analogue of the redundant-core comparison
// in the quad-core RSA processor literature, at a fraction of the
// cost.
//
// Three checks exist, cheapest first:
//
//   - VerifyWitness: given the quotient witness M from
//     mont.Ctx.MulWitness, the Montgomery identity holds over the
//     integers — T·R = x·y + M·N exactly — and an identity over ℤ can
//     be verified in a small-prime residue system with word arithmetic
//     only. A corrupted T (or M) survives only if every checked prime
//     divides the error, i.e. with probability < ∏ 1/pᵢ ≈ 2⁻¹²⁴ for
//     the default four 31-bit primes. This is the check a hardware
//     array would run in parallel RNS checker cells, fed by the same
//     mᵢ broadcast wire the paper's Fig. 1 cells already carry.
//
//   - CheckMont: for results produced by an opaque core (the simulated
//     circuit, or any multiplier a fault injector may have corrupted)
//     no witness is available, and residues alone cannot verify a
//     congruence mod N — the reduction erases residue information mod
//     every other prime. The check therefore pays for two big
//     multiplications and one reduction: T ∈ [0, 2N) and
//     (T·R − x·y) mod N == 0. Still far cheaper than the bit-serial
//     reference multiplication it guards.
//
//   - CheckModExp: full re-verification of an exponentiation against
//     math/big's Exp. There is no sound shortcut for an externally
//     computed modexp (see above), but big.Int's word-level Montgomery
//     arithmetic is an order of magnitude faster than the bit-serial
//     Model path and several orders faster than circuit simulation, so
//     even re-checking every job costs only a few percent
//     (EXPERIMENTS.md, "Integrity checking on the clean path"). A
//     Sampler makes the rate configurable.
package integrity

import (
	"fmt"
	"math/big"

	"repro/internal/errs"
	"repro/internal/mont"
)

// defaultPrimes are four 31-bit primes; their product is ≈ 2¹²⁴, so a
// random corruption of the witness identity passes VerifyWitness with
// probability below 2⁻¹²⁴. They fit in uint32 so every per-prime step
// is a uint64 multiply-accumulate, never a big.Int op.
var defaultPrimes = []uint32{2147483647, 2147483629, 2147483587, 2147483579}

// System is a small-prime residue checker. The zero value is not
// usable; construct with NewSystem.
type System struct {
	primes []uint32
}

// NewSystem returns a residue system over k of the default primes
// (k ≤ 0 or k > len selects all of them).
func NewSystem(k int) *System {
	if k <= 0 || k > len(defaultPrimes) {
		k = len(defaultPrimes)
	}
	return &System{primes: defaultPrimes[:k]}
}

// Primes reports how many primes the system checks against.
func (s *System) Primes() int { return len(s.primes) }

// residue computes v mod p for word-sized p, scanning v's magnitude
// most-significant word first. v must be non-negative.
func residue(v *big.Int, p uint32) uint64 {
	words := v.Bits()
	var r uint64
	for i := len(words) - 1; i >= 0; i-- {
		w := uint64(words[i])
		// 64-bit words: fold the two 32-bit halves so the running value
		// stays below 2⁶⁴ before each reduction.
		if _w := uint(0); _w == 0 && bigWordBits == 64 {
			r = (r<<32 | w>>32) % uint64(p)
			r = (r<<32 | w&0xFFFFFFFF) % uint64(p)
		} else {
			r = (r<<32 | w) % uint64(p)
		}
	}
	return r
}

const bigWordBits = 32 << (^big.Word(0) >> 63)

// VerifyWitness checks the integer identity T·R = x·y + M·N in the
// residue system, where m is the quotient witness from
// mont.Ctx.MulWitness. It returns nil when the identity holds mod
// every prime, and an ErrIntegrity-wrapped error naming the first
// prime that refuted it otherwise.
func (s *System) VerifyWitness(ctx *mont.Ctx, x, y, t, m *big.Int) error {
	return s.VerifyWitnessRN(ctx.N, ctx.R, x, y, t, m)
}

// VerifyWitnessRN is VerifyWitness for an arbitrary (N, R) pair: the
// identity T·R = x·y + M·N is R-generic, so the same residue check
// covers the radix-2 path (R = 2^(l+2)) and the word-level CIOS kit
// (R = 2^(64·S), witness from highradix.Word.MulWitness) alike.
func (s *System) VerifyWitnessRN(n, r, x, y, t, m *big.Int) error {
	for _, p := range s.primes {
		pp := uint64(p)
		lhs := residue(t, p) * residue(r, p) % pp
		rhs := (residue(x, p)*residue(y, p) + residue(m, p)*residue(n, p)) % pp
		if lhs != rhs {
			return fmt.Errorf("integrity: witness identity T·R = x·y + M·N fails mod %d: %w",
				p, errs.ErrIntegrity)
		}
	}
	return nil
}

// CheckMont verifies a Montgomery product T claimed for operands
// (x, y) under ctx, with no witness available: the range invariant
// T ∈ [0, 2N) and the residue identity T·R ≡ x·y (mod N), paid for
// with full-width arithmetic (two multiplications and one reduction).
func CheckMont(ctx *mont.Ctx, x, y, t *big.Int) error {
	if t == nil || t.Sign() < 0 || t.Cmp(ctx.N2) >= 0 {
		return fmt.Errorf("integrity: Mont result outside [0, 2N): %w", errs.ErrIntegrity)
	}
	d := new(big.Int).Mul(t, ctx.R)
	d.Sub(d, new(big.Int).Mul(x, y))
	d.Mod(d, ctx.N)
	if d.Sign() != 0 {
		return fmt.Errorf("integrity: Mont residue check T·R ≢ x·y (mod N): %w", errs.ErrIntegrity)
	}
	return nil
}

// CheckModExp fully re-verifies v = base^exp mod N against math/big.
func CheckModExp(n, base, exp, v *big.Int) error {
	if v == nil || v.Sign() < 0 || v.Cmp(n) >= 0 {
		return fmt.Errorf("integrity: ModExp result outside [0, N): %w", errs.ErrIntegrity)
	}
	if want := new(big.Int).Exp(base, exp, n); v.Cmp(want) != 0 {
		return fmt.Errorf("integrity: ModExp re-verification mismatch: %w", errs.ErrIntegrity)
	}
	return nil
}

// RecomputeMont is the trusted fallback path: it recomputes the
// product on the reference core with a witness and verifies the
// witness identity before returning, so a recomputed result is never
// handed back unchecked.
func (s *System) RecomputeMont(ctx *mont.Ctx, x, y *big.Int) (*big.Int, error) {
	t, m := ctx.MulWitness(x, y)
	if err := s.VerifyWitness(ctx, x, y, t, m); err != nil {
		return nil, fmt.Errorf("integrity: reference recompute failed its own check: %w", err)
	}
	return t, nil
}

// Sampler decides, deterministically and without shared state, which
// operations get the expensive full re-verification. A Sampler is
// confined to one goroutine (each engine worker owns its own); rate 1
// checks everything, rate 0 nothing, 0.25 every fourth operation — the
// error accumulator spreads checks evenly instead of bursting.
type Sampler struct {
	rate float64
	acc  float64
}

// NewSampler clamps rate into [0, 1].
func NewSampler(rate float64) *Sampler {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	return &Sampler{rate: rate}
}

// Rate reports the configured sampling rate.
func (s *Sampler) Rate() float64 { return s.rate }

// Next reports whether the next operation should be fully verified.
func (s *Sampler) Next() bool {
	s.acc += s.rate
	if s.acc >= 1 {
		s.acc--
		return true
	}
	return false
}

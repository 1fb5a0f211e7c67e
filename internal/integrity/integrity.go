// Package integrity provides the per-operation result checks behind
// the engine's end-to-end "no wrong answer ever leaves the process"
// guarantee — the software analogue of the redundant-core comparison
// in the quad-core RSA processor literature, at a fraction of the
// cost. With integrity on, the engine runs one of them on every
// result, and again on the math/big recompute of a result that failed.
//
//   - CheckMont: results come from an opaque core (the simulated
//     circuit, or any multiplier a fault injector may have corrupted),
//     so no quotient witness is available, and residues alone cannot
//     verify a congruence mod N — the reduction erases residue
//     information mod every other prime. The check therefore pays for
//     two big multiplications and one reduction: T ∈ [0, 2N) and
//     (T·R − x·y) mod N == 0. Still far cheaper than the bit-serial
//     reference multiplication it guards.
//
//   - CheckModExp: full re-verification of an exponentiation against
//     math/big's Exp. There is no sound shortcut for an externally
//     computed modexp (see above), but big.Int's word-level Montgomery
//     arithmetic is an order of magnitude faster than the bit-serial
//     Model path and several orders faster than circuit simulation, so
//     re-checking every job costs only a few percent on the Model kit
//     (EXPERIMENTS.md, "Integrity checking on the clean path").
package integrity

import (
	"fmt"
	"math/big"

	"repro/internal/errs"
	"repro/internal/mont"
)

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

// Package core is the single import point for the paper's primary
// contribution: a systolic-array Montgomery modular multiplier without
// final subtraction, with its modular exponentiator, at every fidelity
// level the repository provides —
//
//	mathematical   Algorithm 2 over math/big          (internal/mont)
//	cycle-accurate the MMMC of Fig. 3/4               (internal/mmmc)
//	gate-accurate  the netlist of Figs. 1/2           (internal/systolic)
//	technology     Virtex-E slices and clock period   (internal/fpga)
//
// The root package of the module re-exports these types; applications
// (internal/rsa, internal/ecc) and the benchmark harness build on them.
package core

import (
	"fmt"
	"math/big"

	"repro/internal/errs"
	"repro/internal/expo"
	"repro/internal/fpga"
	"repro/internal/kits"
	"repro/internal/logic"
	"repro/internal/mmmc"
	"repro/internal/mont"
	"repro/internal/systolic"
)

// Option configures a Multiplier or an Exponentiator.
type Option func(*config)

type config struct {
	kit     kits.Kit
	variant systolic.Variant
}

// WithKit selects the compute kit executing Montgomery operations:
// kits.Model (radix-2 reference arithmetic with the paper's cycle
// formulas — the default), kits.Sim (the cycle-accurate MMM circuit),
// kits.CIOS (the production radix-2^64 word-serial fast path) or
// kits.Big (math/big oracle).
func WithKit(k kits.Kit) Option { return func(c *config) { c.kit = k } }

// WithArrayVariant selects the simulated array variant for the Sim kit:
// Guarded (the default, correct for all operands < 2N) or Faithful (the
// paper's exact Fig. 1d cell, subject to the documented
// y + N ≤ 2^(l+1) condition). It has no effect on other kits.
func WithArrayVariant(v systolic.Variant) Option { return func(c *config) { c.variant = v } }

// Multiplier is a Montgomery modular multiplier for one odd modulus.
// Its products run through an expo.Exponentiator's Mont, which checks
// the operands and dispatches the product on the kit; the Multiplier
// adds the Muls/Cycles counters.
//
// Concurrency: a Model-kit Multiplier only reads its immutable
// mont.Ctx during Mont, but the Muls/Cycles counters are plain ints, a
// Sim-kit Multiplier owns a single mutable MMM circuit whose registers
// are rewritten on every product, and a CIOS-kit Multiplier owns
// mutable word-slice scratch — so a Multiplier is NOT safe for
// concurrent use. Give each goroutine its own Multiplier; they may
// share one *mont.Ctx via NewMultiplierFromCtx (a Ctx is immutable and
// safe to share). internal/engine follows the same rule with one
// expo.Exponentiator per worker and modulus.
type Multiplier struct {
	ex  *expo.Exponentiator
	ctx *mont.Ctx

	// Muls counts Montgomery products; Cycles accumulates simulated
	// clock cycles (Sim kit only).
	Muls   int
	Cycles int
}

// NewMultiplier prepares a multiplier for the odd modulus n ≥ 3.
func NewMultiplier(n *big.Int, opts ...Option) (*Multiplier, error) {
	ctx, err := mont.NewCtx(n)
	if err != nil {
		return nil, err
	}
	return NewMultiplierFromCtx(ctx, opts...)
}

// NewMultiplierFromCtx builds a multiplier over an existing Montgomery
// context, skipping the per-modulus precomputation (the R⁻¹ inversion
// and R² reduction). The Ctx may be shared between multipliers — it is
// immutable — but the returned Multiplier itself must stay confined to
// one goroutine; see the type's concurrency note.
func NewMultiplierFromCtx(ctx *mont.Ctx, opts ...Option) (*Multiplier, error) {
	cfg := newConfig(opts)
	ex, err := expo.NewKitFromCtx(ctx, cfg.kit, expo.WithVariant(cfg.variant))
	if err != nil {
		return nil, err
	}
	return &Multiplier{ex: ex, ctx: ctx}, nil
}

func newConfig(opts []Option) config {
	cfg := config{variant: systolic.Guarded}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// L returns the modulus bit length.
func (m *Multiplier) L() int { return m.ctx.L }

// N returns (a copy of) the modulus.
func (m *Multiplier) N() *big.Int { return new(big.Int).Set(m.ctx.N) }

// R returns the Montgomery parameter 2^(l+2).
func (m *Multiplier) R() *big.Int { return new(big.Int).Set(m.ctx.R) }

// Ctx exposes the underlying Montgomery context.
func (m *Multiplier) Ctx() *mont.Ctx { return m.ctx }

// Kit reports the compute kit this multiplier runs on.
func (m *Multiplier) Kit() kits.Kit { return m.ex.Kit }

// Simulated reports whether products run through the MMM circuit.
func (m *Multiplier) Simulated() bool { return m.ex.Kit == kits.Sim }

// CyclesPerMont returns the clock cycles one Montgomery product takes on
// the circuit: 3l + 4.
func (m *Multiplier) CyclesPerMont() int { return 3*m.ctx.L + 4 }

// Mont computes the Montgomery product x·y·R⁻¹ mod 2N for operands in
// [0, 2N-1]. The result is again in [0, 2N-1] and may be fed straight
// back — no reduction ever happens, the paper's central property.
// Operands outside that range fail with ErrOperandRange and are not
// counted.
//
// Every kit computes the same residue mod N; the in-[0, 2N)
// representative may differ across kits (see expo.(*Exponentiator).Mont).
func (m *Multiplier) Mont(x, y *big.Int) (*big.Int, error) {
	v, cycles, err := m.ex.Mont(x, y)
	if err != nil {
		return nil, err
	}
	m.Muls++
	m.Cycles += cycles
	return v, nil
}

// MulMod computes the plain modular product x·y mod N for x, y in
// [0, N-1], performing the domain conversions internally (two Montgomery
// products: one by R² mod N, one by y... precisely Mont(Mont(x, R²), y)
// followed by canonicalization).
func (m *Multiplier) MulMod(x, y *big.Int) (*big.Int, error) {
	if x.Sign() < 0 || x.Cmp(m.ctx.N) >= 0 || y.Sign() < 0 || y.Cmp(m.ctx.N) >= 0 {
		return nil, fmt.Errorf("core: MulMod operands must be in [0, N-1]: %w", errs.ErrOperandRange)
	}
	xr, err := m.Mont(x, m.ctx.RR)
	if err != nil {
		return nil, err
	}
	p, err := m.Mont(xr, y)
	if err != nil {
		return nil, err
	}
	return m.ctx.Reduce(p), nil
}

// ToMont and FromMont expose the domain conversions.
func (m *Multiplier) ToMont(x *big.Int) (*big.Int, error) { return m.Mont(x, m.ctx.RR) }

// FromMont strips the R factor: Mont(t, 1), canonicalized to [0, N).
func (m *Multiplier) FromMont(t *big.Int) (*big.Int, error) {
	v, err := m.Mont(t, big.NewInt(1))
	if err != nil {
		return nil, err
	}
	return m.ctx.Reduce(v), nil
}

// NewExponentiator returns the paper's modular exponentiator over the
// odd modulus n, configured with the same functional options as
// NewMultiplier: WithKit selects the execution path, WithArrayVariant
// the simulated array flavour for the Sim kit.
func NewExponentiator(n *big.Int, opts ...Option) (*expo.Exponentiator, error) {
	cfg := newConfig(opts)
	return expo.NewKit(n, cfg.kit, expo.WithVariant(cfg.variant))
}

// HardwareReport summarizes the synthesized circuit for a bit length:
// the data behind one row of the paper's Table 2.
type HardwareReport struct {
	L            int
	Gates        logic.Census
	Mapping      fpga.MapResult
	CyclesPerMul int
	TMMMUs       float64
}

// Hardware builds the full gate-level MMMC for bit length l (the
// paper's Faithful cells), maps it onto the Virtex-E model and reports
// area and timing.
func Hardware(l int) (HardwareReport, error) {
	nl := logic.New()
	if _, err := mmmc.BuildNetlist(nl, l, systolic.Faithful); err != nil {
		return HardwareReport{}, err
	}
	mr, err := fpga.VirtexE.Map(nl)
	if err != nil {
		return HardwareReport{}, err
	}
	return HardwareReport{
		L:            l,
		Gates:        nl.Census(),
		Mapping:      mr,
		CyclesPerMul: 3*l + 4,
		TMMMUs:       float64(3*l+4) * mr.ClockPeriodNs / 1000,
	}, nil
}

// Package expo implements the paper's modular exponentiator (§4.5):
// left-to-right square-and-multiply (Algorithm 3) where every
// multiplication is a Montgomery multiplication through the MMM circuit,
// with the paper's exact cycle accounting —
//
//	pre-processing  (M·R² and the R² constant)   5l + 10 cycles
//	each square or multiply                       3l + 4  cycles
//	post-processing (Mont(A, 1))                  l + 2   cycles
//
// giving Eq. (10):  3l² + 10l + 12 ≤ T_modexp ≤ 6l² + 14l + 12.
//
// Every product runs on the exponentiator's compute kit (internal/kits).
// kits.Sim pushes it through the cycle-accurate MMMC (internal/mmmc) —
// the ground truth, at simulation cost O(l²) per multiplication.
// kits.Model computes the same values with the reference arithmetic
// (internal/mont) while accounting cycles with the paper's formulas;
// conformance tests pin the two to identical results and identical
// square/multiply counts, so Model is safe for the large bit lengths of
// Tables 1 and 2. kits.CIOS and kits.Big are the host fast paths.
// (*Exponentiator).Mont checks its operands and runs one product through
// the exponentiator's single switch over the kits; internal/core's
// Multiplier and each internal/engine worker core compute through it.
package expo

import (
	"fmt"
	"math/big"
	mathbits "math/bits"

	"repro/internal/bits"
	"repro/internal/errs"
	"repro/internal/highradix"
	"repro/internal/kits"
	"repro/internal/mmmc"
	"repro/internal/mont"
	"repro/internal/systolic"
)

// Report describes one modular exponentiation's decomposition and cycle
// cost.
type Report struct {
	L          int
	Squares    int // squarings (one per exponent bit below the MSB)
	Multiplies int // conditional multiplies (one per set bit below the MSB)

	// Paper-model cycle accounting (§4.5).
	PreCycles   int // 5l + 10
	MulCycles   int // (Squares + Multiplies) · (3l + 4)
	PostCycles  int // l + 2
	TotalCycles int // sum of the above

	// SimulatedMulCycles counts the MUL1/MUL2 clock cycles actually
	// spent inside the simulated MMMC (Sim kit only; 0 on every other kit).
	// Each multiplication measures exactly 3l+4, so this equals
	// (Squares+Multiplies+2)·(3l+4) — the +2 being the explicit pre- and
	// post-multiplications.
	SimulatedMulCycles int
}

// PaperLowerBound returns 3l²+10l+12, Eq. (10)'s minimum (single-bit
// exponent of length l under the paper's l-square convention).
func PaperLowerBound(l int) int { return 3*l*l + 10*l + 12 }

// PaperUpperBound returns 6l²+14l+12, Eq. (10)'s maximum (all-ones
// exponent).
func PaperUpperBound(l int) int { return 6*l*l + 14*l + 12 }

// PaperAverageCycles returns the midpoint of Eq. (10), 4.5l²+12l+12 —
// the balanced-Hamming-weight average behind Table 1.
func PaperAverageCycles(l int) float64 {
	return 4.5*float64(l)*float64(l) + 12*float64(l) + 12
}

// Exponentiator computes modular exponentiations over one modulus.
type Exponentiator struct {
	L   int
	Kit kits.Kit // the compute kit executing multiplications

	ctx     *mont.Ctx
	circuit *mmmc.Circuit // Sim kit only
	nVec    bits.Vec
	word    *highradix.Word // CIOS kit only
}

// Option configures an Exponentiator beyond its kit.
type Option func(*config)

type config struct {
	variant systolic.Variant
}

// WithVariant selects the array variant the Sim kit simulates. The
// default is Guarded, whose correctness holds for every chained operand
// (see internal/systolic); the paper's cycle counts are unaffected by
// the guard.
func WithVariant(v systolic.Variant) Option { return func(c *config) { c.variant = v } }

// NewKit builds an exponentiator on the given compute kit for the odd
// modulus n.
func NewKit(n *big.Int, k kits.Kit, opts ...Option) (*Exponentiator, error) {
	ctx, err := mont.NewCtx(n)
	if err != nil {
		return nil, err
	}
	return NewKitFromCtx(ctx, k, opts...)
}

// NewKitFromCtx builds an exponentiator on the given compute kit over an
// existing context, skipping the per-modulus precomputation. The Ctx is
// immutable and may be shared freely; the Exponentiator itself (whose
// Sim-kit circuit and CIOS-kit scratch are mutable state) must stay
// confined to one goroutine. internal/engine uses this to share
// LRU-cached contexts across worker cores while giving each core an
// exclusive circuit.
func NewKitFromCtx(ctx *mont.Ctx, k kits.Kit, opts ...Option) (*Exponentiator, error) {
	if !k.Valid() {
		return nil, fmt.Errorf("expo: unknown kit %v: %w", k, errs.ErrOperandRange)
	}
	cfg := config{variant: systolic.Guarded}
	for _, o := range opts {
		o(&cfg)
	}
	e := &Exponentiator{L: ctx.L, Kit: k, ctx: ctx}
	switch k {
	case kits.Sim:
		c, err := mmmc.New(ctx.L, cfg.variant)
		if err != nil {
			return nil, err
		}
		e.circuit = c
		e.nVec = bits.FromBig(ctx.N, ctx.L)
	case kits.CIOS:
		e.word = highradix.NewWord(ctx)
	}
	return e, nil
}

// Ctx exposes the Montgomery context (for benchmarks and applications).
func (e *Exponentiator) Ctx() *mont.Ctx { return e.ctx }

// Mont computes one Montgomery product x·y·R⁻¹ (R = 2^(l+2)) on the
// exponentiator's kit and returns it with the clock cycles the
// simulated MMMC measured (Sim kit only; 0 on every other kit).
// Operands must lie in [0, 2N); others fail with ErrOperandRange. Every
// kit returns the same residue mod N in [0, 2N): Sim runs the circuit,
// CIOS the word kernel, Big the closed form, Model Algorithm 2. The
// representative may differ across kits (CIOS and Big both reduce
// below N, Algorithm 2 need not).
func (e *Exponentiator) Mont(x, y *big.Int) (*big.Int, int, error) {
	if x.Sign() < 0 || x.Cmp(e.ctx.N2) >= 0 || y.Sign() < 0 || y.Cmp(e.ctx.N2) >= 0 {
		return nil, 0, fmt.Errorf("expo: Mont operands must be in [0, 2N-1]: %w", errs.ErrOperandRange)
	}
	return e.mont(x, y)
}

// mont is Mont without the operand check: the one place that
// dispatches a product on a kit. ModExp's chained products stay in
// [0, 2N) by construction, so they call it directly.
func (e *Exponentiator) mont(x, y *big.Int) (*big.Int, int, error) {
	switch e.Kit {
	case kits.Sim:
		res, cycles, err := e.circuit.Run(bits.FromBig(x, e.L+1), bits.FromBig(y, e.L+1), e.nVec)
		if err != nil {
			return nil, 0, err
		}
		return res.Big(), cycles, nil
	case kits.CIOS:
		v, err := e.word.Mont(x, y)
		return v, 0, err
	case kits.Big:
		return e.ctx.MulClosedForm(x, y), 0, nil
	}
	return e.ctx.Mul(x, y), 0, nil
}

// mul is mont with its simulated cycles added to rep.
func (e *Exponentiator) mul(x, y *big.Int, rep *Report) (*big.Int, error) {
	v, cycles, err := e.mont(x, y)
	rep.SimulatedMulCycles += cycles
	return v, err
}

// checkArgs validates a base in [0, N-1] and a positive exponent.
func (e *Exponentiator) checkArgs(m, exp *big.Int) error {
	if exp.Sign() <= 0 {
		return fmt.Errorf("expo: exponent must be positive: %w", errs.ErrOperandRange)
	}
	if m.Sign() < 0 || m.Cmp(e.ctx.N) >= 0 {
		return fmt.Errorf("expo: base must be in [0, N-1]: %w", errs.ErrOperandRange)
	}
	return nil
}

// fromMont leaves the Montgomery domain: Mont(a, 1) lies in [0, 2N), and
// one subtraction off the hot loop makes it canonical.
func (e *Exponentiator) fromMont(a *big.Int, rep *Report) (*big.Int, error) {
	out, err := e.mul(a, big.NewInt(1), rep)
	if err != nil {
		return nil, err
	}
	if out.Cmp(e.ctx.N) >= 0 {
		out.Sub(out, e.ctx.N)
	}
	return out, nil
}

// price fills the §4.5 cycle model from the square/multiply counts:
// pre-processing 5l+10, 3l+4 per square or multiply, l+2
// post-processing.
func (r *Report) price() {
	l := r.L
	r.PreCycles = 5*l + 10
	r.MulCycles = (r.Squares + r.Multiplies) * (3*l + 4)
	r.PostCycles = l + 2
	r.TotalCycles = r.PreCycles + r.MulCycles + r.PostCycles
}

// countBinary prices a binary square-and-multiply run without counting
// it product by product: one square per exponent bit below the MSB, one
// multiply per set bit below the MSB.
func (r *Report) countBinary(exp *big.Int) {
	r.Squares = exp.BitLen() - 1
	r.Multiplies = -1 // the MSB seeds the accumulator
	for _, w := range exp.Bits() {
		r.Multiplies += mathbits.OnesCount(uint(w))
	}
	r.price()
}

// ModExp computes m^exp mod N via Algorithm 3. m must lie in [0, N-1];
// exp must be positive.
func (e *Exponentiator) ModExp(m, exp *big.Int) (*big.Int, Report, error) {
	rep := Report{L: e.L}
	if err := e.checkArgs(m, exp); err != nil {
		return nil, rep, err
	}

	// The fast kits run their own schedule internally. CIOS runs the
	// word domain: binary square-and-multiply for exponents of 64 bits or
	// fewer, a 5-bit fixed window with a constant product schedule above
	// that; Big runs math/big's own windowed exponentiation. The Report
	// deliberately stays the paper's Algorithm-3 cycle accounting on
	// every kit — the squares and multiplies of Algorithm 3, a function
	// of the exponent alone — so the decomposition and cycle model are
	// identical across kits and do not count the products a fast kit
	// actually ran.
	switch e.Kit {
	case kits.CIOS:
		a, err := e.word.ModExp(m, exp)
		if err != nil {
			return nil, rep, err
		}
		rep.countBinary(exp)
		return a, rep, nil
	case kits.Big:
		rep.countBinary(exp)
		return new(big.Int).Exp(m, exp, e.ctx.N), rep, nil
	}

	// Pre-processing: A = Mont(M, R² mod N) = M·R mod 2N.
	a, err := e.mul(m, e.ctx.RR, &rep)
	if err != nil {
		return nil, rep, err
	}
	mr := new(big.Int).Set(a)

	for i := exp.BitLen() - 2; i >= 0; i-- {
		if a, err = e.mul(a, a, &rep); err != nil {
			return nil, rep, err
		}
		rep.Squares++
		if exp.Bit(i) == 1 {
			if a, err = e.mul(a, mr, &rep); err != nil {
				return nil, rep, err
			}
			rep.Multiplies++
		}
	}

	// Post-processing: Mont(A, 1) strips the R factor.
	if a, err = e.fromMont(a, &rep); err != nil {
		return nil, rep, err
	}
	rep.price()
	return a, rep, nil
}

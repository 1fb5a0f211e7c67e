// Package highradix generalizes the paper's radix-2 design to word base
// 2^α, following the discussion in §2 (and Batina–Muurling [1]): with
// R = 2^(α·k) and k = ⌈(l+2)/α⌉ iterations the multiplication still
// needs no final subtraction for operands below 2N, and the iteration
// count drops by the radix factor — at the price of wider, slower
// processing elements (quotient-digit computation now needs the full
// N' = -N⁻¹ mod 2^α multiply the radix-2 design erased). Word, the
// production α = 64 kit, takes the other side of that trade: ⌈l/64⌉
// limbs and one masked final subtraction (see its doc).
//
// The functional core is property-tested against math/big; the cost
// model feeds the radix-ablation benchmark that grounds the paper's
// claim that radix 2 maximizes clock frequency while higher radices
// trade frequency for fewer cycles (Blum–Paar [4] explore the same
// trade).
package highradix

import (
	"fmt"
	"math/big"

	"repro/internal/errs"
	"repro/internal/mont"
)

// Ctx is a high-radix Montgomery multiplication context.
type Ctx struct {
	N     *big.Int
	L     int      // bit length of N
	Alpha uint     // word size in bits (radix 2^Alpha)
	K     int      // iterations, ⌈(L+2)/Alpha⌉
	R     *big.Int // 2^(Alpha·K)
	N2    *big.Int // 2N

	nPrime *big.Int // -N⁻¹ mod 2^Alpha
	base   *big.Int // 2^Alpha
	mask   *big.Int // 2^Alpha - 1
}

// New builds a radix-2^alpha context for the odd modulus n.
func New(n *big.Int, alpha uint) (*Ctx, error) {
	if alpha == 0 || alpha > 64 {
		return nil, fmt.Errorf("highradix: alpha %d outside [1,64]: %w", alpha, errs.ErrOperandRange)
	}
	if n.Sign() <= 0 || n.Cmp(big.NewInt(3)) < 0 {
		return nil, mont.ErrModulusTooSmall
	}
	if n.Bit(0) == 0 {
		return nil, mont.ErrEvenModulus
	}
	l := n.BitLen()
	k := (l + 2 + int(alpha) - 1) / int(alpha)
	np, err := mont.NPrime(n, alpha)
	if err != nil {
		return nil, err
	}
	base := new(big.Int).Lsh(big.NewInt(1), alpha)
	return &Ctx{
		N:      new(big.Int).Set(n),
		L:      l,
		Alpha:  alpha,
		K:      k,
		R:      new(big.Int).Lsh(big.NewInt(1), alpha*uint(k)),
		N2:     new(big.Int).Lsh(n, 1),
		nPrime: np,
		base:   base,
		mask:   new(big.Int).Sub(base, big.NewInt(1)),
	}, nil
}

// Iterations returns k = ⌈(l+2)/α⌉, the paper's §2 figure.
func (c *Ctx) Iterations() int { return c.K }

// Mul computes x·y·R⁻¹ mod 2N with the word-serial loop and no final
// subtraction. Inputs must be in [0, 2N-1]; so is the output (the
// R ≥ 2^(l+2) > 4N bound carries over unchanged).
func (c *Ctx) Mul(x, y *big.Int) *big.Int {
	if x.Sign() < 0 || x.Cmp(c.N2) >= 0 || y.Sign() < 0 || y.Cmp(c.N2) >= 0 {
		panic("highradix: operand outside [0, 2N-1]")
	}
	t := new(big.Int)
	xi := new(big.Int)
	mi := new(big.Int)
	tmp := new(big.Int)
	for i := 0; i < c.K; i++ {
		// x_i = i-th base-2^α digit of x.
		xi.Rsh(x, uint(i)*c.Alpha)
		xi.And(xi, c.mask)
		// t += x_i·y
		t.Add(t, tmp.Mul(xi, y))
		// m_i = t·N' mod 2^α
		mi.And(t, c.mask)
		mi.Mul(mi, c.nPrime)
		mi.And(mi, c.mask)
		// t = (t + m_i·N) / 2^α
		t.Add(t, tmp.Mul(mi, c.N))
		t.Rsh(t, c.Alpha)
	}
	return t
}

// CostModel captures the hardware trade the radix sweep explores.
type CostModel struct {
	Alpha         uint
	Iterations    int     // loop iterations per multiplication
	CyclesPerMul  int     // clock cycles per multiplication
	ClockPeriodNs float64 // modelled clock period of one PE
	TimePerMulNs  float64 // cycles × period
	RelativeArea  float64 // PE area relative to the radix-2 cell
}

// Cost evaluates the model for this context, anchored at the paper's
// radix-2 figures: 3l+4 cycles at clock period tp2 (pass the Virtex-E
// model's value, ≈10 ns). Scaling assumptions, stated explicitly:
//
//   - cycles: the systolic schedule generalizes to 2k + ⌈l/α⌉ (digit
//     injection every 2 clocks, drain of one row of ⌈l/α⌉ PEs), which
//     reduces to the paper's 3l+4 at α = 1;
//   - clock period: the PE's critical path grows with the α×α partial
//     product and the N'-multiply; modelled as tp2·(1 + 0.35·(α-1)),
//     the linear trend Blum–Paar report between radix 2 and radix 16;
//   - area: an α-bit digit PE costs ≈ α² the gates of the bit PE
//     (array multiplier), amortized over l/α positions → relative area
//     per array ≈ α.
func (c *Ctx) Cost(tp2 float64) CostModel {
	alpha := int(c.Alpha)
	cycles := 2*c.K + (c.L+alpha-1)/alpha
	period := tp2 * (1 + 0.35*float64(alpha-1))
	return CostModel{
		Alpha:         c.Alpha,
		Iterations:    c.K,
		CyclesPerMul:  cycles,
		ClockPeriodNs: period,
		TimePerMulNs:  float64(cycles) * period,
		RelativeArea:  float64(alpha),
	}
}

// ModExp computes m^e mod N over the high-radix multiplier (reference
// use; applications use internal/expo for the paper's circuit).
func (c *Ctx) ModExp(m, e *big.Int) (*big.Int, error) {
	if e.Sign() <= 0 {
		return nil, fmt.Errorf("highradix: exponent must be positive: %w", errs.ErrOperandRange)
	}
	if m.Sign() < 0 || m.Cmp(c.N) >= 0 {
		return nil, fmt.Errorf("highradix: base must be in [0, N-1]: %w", errs.ErrOperandRange)
	}
	rr := new(big.Int).Mul(c.R, c.R)
	rr.Mod(rr, c.N)
	a := c.Mul(m, rr)
	mr := new(big.Int).Set(a)
	for i := e.BitLen() - 2; i >= 0; i-- {
		a = c.Mul(a, a)
		if e.Bit(i) == 1 {
			a = c.Mul(a, mr)
		}
	}
	a = c.Mul(a, big.NewInt(1))
	if a.Cmp(c.N) >= 0 {
		a.Sub(a, c.N)
	}
	return a, nil
}

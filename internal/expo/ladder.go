package expo

import (
	"fmt"
	"math/big"

	"repro/internal/errs"
)

// Exponentiation variants beyond the paper's Algorithm 3. The paper's
// §5 argues its multiplier resists timing attacks because no data-
// dependent reduction exists *inside* a multiplication; at the exponent
// level, Algorithm 3 still performs a multiplication only for 1-bits.
// The Montgomery powering ladder closes that gap (uniform
// square-and-multiply sequence per bit); the fixed-window method is the
// standard throughput improvement. Both run over the same Montgomery
// core and the same cycle accounting.

// ModExpLadder computes m^exp mod N with the Montgomery powering ladder:
// exactly one multiplication and one squaring per exponent bit,
// independent of the bit's value, so the *operation sequence* leaks only
// the exponent length. Cycle accounting follows §4.5 with
// 2·(bits-1) multiplications.
func (e *Exponentiator) ModExpLadder(m, exp *big.Int) (*big.Int, Report, error) {
	rep := Report{L: e.L}
	if err := e.checkArgs(m, exp); err != nil {
		return nil, rep, err
	}
	mul := func(x, y *big.Int) (*big.Int, error) { return e.mul(x, y, &rep) }

	// R0 = R mod 2N (the Montgomery representation of 1),
	// R1 = mR mod 2N.
	one := new(big.Int).Mod(e.ctx.R, e.ctx.N2)
	r1, err := mul(m, e.ctx.RR)
	if err != nil {
		return nil, rep, err
	}
	r0 := one

	for i := exp.BitLen() - 1; i >= 0; i-- {
		if exp.Bit(i) == 0 {
			if r1, err = mul(r0, r1); err != nil {
				return nil, rep, err
			}
			if r0, err = mul(r0, r0); err != nil {
				return nil, rep, err
			}
		} else {
			if r0, err = mul(r0, r1); err != nil {
				return nil, rep, err
			}
			if r1, err = mul(r1, r1); err != nil {
				return nil, rep, err
			}
		}
		rep.Squares++
		rep.Multiplies++
	}

	out, err := e.fromMont(r0, &rep)
	if err != nil {
		return nil, rep, err
	}
	rep.price(0)
	return out, rep, nil
}

// ModExpWindow computes m^exp mod N with the fixed-window (2^w-ary)
// method: a table of the first 2^w powers in the Montgomery domain, then
// w squarings plus at most one multiplication per window. Larger windows
// trade table-building multiplications for fewer per-window products —
// the software analogue of the paper's high-radix discussion.
func (e *Exponentiator) ModExpWindow(m, exp *big.Int, w int) (*big.Int, Report, error) {
	rep := Report{L: e.L}
	if w < 1 || w > 16 {
		return nil, rep, fmt.Errorf("expo: window width must be in [1, 16]: %w", errs.ErrOperandRange)
	}
	if err := e.checkArgs(m, exp); err != nil {
		return nil, rep, err
	}
	mul := func(x, y *big.Int) (*big.Int, error) { return e.mul(x, y, &rep) }

	// Table: t[0] = R mod 2N (Montgomery 1), t[k] = m^k·R mod 2N.
	size := 1 << w
	table := make([]*big.Int, size)
	table[0] = new(big.Int).Mod(e.ctx.R, e.ctx.N2)
	mr, err := mul(m, e.ctx.RR)
	if err != nil {
		return nil, rep, err
	}
	tableMuls := 1 // the pre-multiplication above
	if size > 1 {
		table[1] = mr
	}
	for k := 2; k < size; k++ {
		if table[k], err = mul(table[k-1], mr); err != nil {
			return nil, rep, err
		}
		tableMuls++
	}

	// Consume the exponent in w-bit windows, most significant first.
	bitsTotal := exp.BitLen()
	windows := (bitsTotal + w - 1) / w
	acc := new(big.Int).Set(table[0])
	started := false
	for wi := windows - 1; wi >= 0; wi-- {
		if started {
			for s := 0; s < w; s++ {
				if acc, err = mul(acc, acc); err != nil {
					return nil, rep, err
				}
				rep.Squares++
			}
		}
		// Extract window value.
		val := 0
		for b := w - 1; b >= 0; b-- {
			idx := wi*w + b
			val <<= 1
			if idx < bitsTotal {
				val |= int(exp.Bit(idx))
			}
		}
		if val != 0 {
			if !started {
				acc = new(big.Int).Set(table[val])
				started = true
				continue
			}
			if acc, err = mul(acc, table[val]); err != nil {
				return nil, rep, err
			}
			rep.Multiplies++
		}
	}

	out, err := e.fromMont(acc, &rep)
	if err != nil {
		return nil, rep, err
	}
	rep.price(tableMuls - 1) // table build beyond the base pre-mul
	return out, rep, nil
}

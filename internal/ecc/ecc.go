// Package ecc implements the paper's stated next step (§5 and ref [20]):
// elliptic-curve point multiplication over GF(p) built exclusively from
// the reproduced Montgomery multiplier — "this operation does not require
// modular exponentiation but modular multiplication only, so all required
// components are available".
//
// Curves are short Weierstrass y² = x³ + ax + b over an odd prime p.
// All field elements are kept in the Montgomery domain (x·R mod p), so
// every field multiplication is exactly one pass of the paper's
// Algorithm 2 (internal/mont.Ctx.Mul); additions and subtractions are
// plain modular ring operations; the only inversion happens when a
// Jacobian point is finally converted to affine coordinates, computed as
// z^(p-2) via the same Montgomery exponentiator.
//
// Scalar multiplication is provided both as left-to-right double-and-add
// and as a Montgomery ladder (the constant-sequence variant relevant to
// the paper's side-channel discussion).
package ecc

import (
	"errors"
	"fmt"
	"math/big"
	"sync/atomic"

	"repro/internal/mont"
)

// Curve is a short Weierstrass curve over GF(p) with a designated base
// point.
type Curve struct {
	P      *big.Int // field prime (odd, ≥ 5)
	A, B   *big.Int // curve coefficients
	Gx, Gy *big.Int // base point (affine, integer domain)
	Order  *big.Int // order of the base point (optional, may be nil)

	ctx *mont.Ctx
	aM  *big.Int // A in Montgomery domain, canonical
	bM  *big.Int // B in Montgomery domain, canonical

	// fieldMuls counts Montgomery multiplications performed — the
	// quantity a hardware cost model multiplies by T_MMM. Atomic:
	// process-wide curve instances (cryptosvc.CurveByID) serve
	// concurrent signing requests.
	fieldMuls atomic.Int64
}

// FieldMulCount returns the number of Montgomery field multiplications
// performed on this curve since construction or the last
// ResetFieldMuls — the quantity a hardware cost model multiplies by
// T_MMM.
func (c *Curve) FieldMulCount() int64 { return c.fieldMuls.Load() }

// ResetFieldMuls zeroes the field-multiplication counter (cost-model
// measurement runs bracket an operation with Reset + Count).
func (c *Curve) ResetFieldMuls() { c.fieldMuls.Store(0) }

// Point is a Jacobian-coordinate point with Montgomery-domain
// coordinates; Z = 0 encodes the point at infinity.
type Point struct {
	X, Y, Z *big.Int
}

// NewCurve validates the parameters and prepares the Montgomery context.
func NewCurve(p, a, b, gx, gy, order *big.Int) (*Curve, error) {
	if p.Cmp(big.NewInt(5)) < 0 || p.Bit(0) == 0 {
		return nil, errors.New("ecc: field prime must be odd and at least 5")
	}
	ctx, err := mont.NewCtx(p)
	if err != nil {
		return nil, err
	}
	c := &Curve{
		P:   new(big.Int).Set(p),
		A:   new(big.Int).Mod(a, p),
		B:   new(big.Int).Mod(b, p),
		ctx: ctx,
	}
	// Non-singularity: 4a³ + 27b² ≠ 0 mod p.
	disc := new(big.Int).Exp(c.A, big.NewInt(3), p)
	disc.Lsh(disc, 2)
	b2 := new(big.Int).Mul(c.B, c.B)
	b2.Mul(b2, big.NewInt(27))
	disc.Add(disc, b2)
	disc.Mod(disc, p)
	if disc.Sign() == 0 {
		return nil, errors.New("ecc: singular curve (4a³ + 27b² ≡ 0)")
	}
	c.aM = c.toM(c.A)
	c.bM = c.toM(c.B)
	if gx != nil && gy != nil {
		c.Gx = new(big.Int).Mod(gx, p)
		c.Gy = new(big.Int).Mod(gy, p)
		if !c.IsOnCurve(c.Gx, c.Gy) {
			return nil, errors.New("ecc: base point not on curve")
		}
	}
	if order != nil {
		c.Order = new(big.Int).Set(order)
	}
	return c, nil
}

// toM converts an integer-domain value into canonical Montgomery form.
func (c *Curve) toM(x *big.Int) *big.Int {
	return c.ctx.Reduce(c.ctx.ToMont(new(big.Int).Mod(x, c.P)))
}

// fromM converts back to the integer domain, canonical.
func (c *Curve) fromM(x *big.Int) *big.Int {
	return c.ctx.Reduce(c.ctx.FromMont(x))
}

// mul is one Montgomery field multiplication (one Algorithm-2 pass),
// canonicalized to [0, p).
func (c *Curve) mul(x, y *big.Int) *big.Int {
	c.fieldMuls.Add(1)
	return c.ctx.Reduce(c.ctx.Mul(x, y))
}

func (c *Curve) sqr(x *big.Int) *big.Int { return c.mul(x, x) }

func (c *Curve) add(x, y *big.Int) *big.Int {
	s := new(big.Int).Add(x, y)
	if s.Cmp(c.P) >= 0 {
		s.Sub(s, c.P)
	}
	return s
}

func (c *Curve) sub(x, y *big.Int) *big.Int {
	d := new(big.Int).Sub(x, y)
	if d.Sign() < 0 {
		d.Add(d, c.P)
	}
	return d
}

func (c *Curve) mulSmall(x *big.Int, k int64) *big.Int {
	v := new(big.Int).Mul(x, big.NewInt(k))
	return v.Mod(v, c.P)
}

// Infinity returns the point at infinity.
func (c *Curve) Infinity() *Point {
	return &Point{X: big.NewInt(1), Y: big.NewInt(1), Z: big.NewInt(0)}
}

// IsInfinity reports whether pt is the point at infinity.
func (c *Curve) IsInfinity(pt *Point) bool { return pt.Z.Sign() == 0 }

// NewPoint builds a Jacobian point from affine integer-domain
// coordinates, converting into the Montgomery domain.
func (c *Curve) NewPoint(x, y *big.Int) (*Point, error) {
	xm, ym := new(big.Int).Mod(x, c.P), new(big.Int).Mod(y, c.P)
	if !c.IsOnCurve(xm, ym) {
		return nil, fmt.Errorf("ecc: (%s, %s) not on curve", x, y)
	}
	return &Point{X: c.toM(xm), Y: c.toM(ym), Z: c.toM(big.NewInt(1))}, nil
}

// Base returns the curve's base point.
func (c *Curve) Base() (*Point, error) {
	if c.Gx == nil {
		return nil, errors.New("ecc: curve has no base point")
	}
	return c.NewPoint(c.Gx, c.Gy)
}

// IsOnCurve checks y² = x³ + ax + b for affine integer-domain (x, y).
func (c *Curve) IsOnCurve(x, y *big.Int) bool {
	lhs := new(big.Int).Mul(y, y)
	lhs.Mod(lhs, c.P)
	rhs := new(big.Int).Exp(x, big.NewInt(3), c.P)
	ax := new(big.Int).Mul(c.A, x)
	rhs.Add(rhs, ax)
	rhs.Add(rhs, c.B)
	rhs.Mod(rhs, c.P)
	return lhs.Cmp(rhs) == 0
}

// Double returns 2·pt (Jacobian doubling, general a).
func (c *Curve) Double(pt *Point) *Point {
	if c.IsInfinity(pt) || pt.Y.Sign() == 0 {
		return c.Infinity()
	}
	y2 := c.sqr(pt.Y)                       // Y²
	s := c.mul(pt.X, y2)                    // XY²
	s = c.mulSmall(s, 4)                    // S = 4XY²
	z2 := c.sqr(pt.Z)                       // Z²
	m := c.mulSmall(c.sqr(pt.X), 3)         // 3X²
	m = c.add(m, c.mul(c.aM, c.sqr(z2)))    // M = 3X² + aZ⁴
	x3 := c.sub(c.sqr(m), c.mulSmall(s, 2)) // X' = M² − 2S
	y4 := c.mulSmall(c.sqr(y2), 8)          // 8Y⁴
	y3 := c.sub(c.mul(m, c.sub(s, x3)), y4) // Y' = M(S − X') − 8Y⁴
	z3 := c.mulSmall(c.mul(pt.Y, pt.Z), 2)  // Z' = 2YZ
	return &Point{X: x3, Y: y3, Z: z3}
}

// Add returns p1 + p2 (Jacobian addition, handling all special cases).
func (c *Curve) Add(p1, p2 *Point) *Point {
	if c.IsInfinity(p1) {
		return &Point{X: new(big.Int).Set(p2.X), Y: new(big.Int).Set(p2.Y), Z: new(big.Int).Set(p2.Z)}
	}
	if c.IsInfinity(p2) {
		return &Point{X: new(big.Int).Set(p1.X), Y: new(big.Int).Set(p1.Y), Z: new(big.Int).Set(p1.Z)}
	}
	z1z1 := c.sqr(p1.Z)
	z2z2 := c.sqr(p2.Z)
	u1 := c.mul(p1.X, z2z2)
	u2 := c.mul(p2.X, z1z1)
	s1 := c.mul(p1.Y, c.mul(z2z2, p2.Z))
	s2 := c.mul(p2.Y, c.mul(z1z1, p1.Z))
	h := c.sub(u2, u1)
	r := c.sub(s2, s1)
	if h.Sign() == 0 {
		if r.Sign() == 0 {
			return c.Double(p1)
		}
		return c.Infinity()
	}
	h2 := c.sqr(h)
	h3 := c.mul(h2, h)
	u1h2 := c.mul(u1, h2)
	x3 := c.sub(c.sub(c.sqr(r), h3), c.mulSmall(u1h2, 2))
	y3 := c.sub(c.mul(r, c.sub(u1h2, x3)), c.mul(s1, h3))
	z3 := c.mul(c.mul(p1.Z, p2.Z), h)
	return &Point{X: x3, Y: y3, Z: z3}
}

// ScalarMult returns k·pt by left-to-right double-and-add.
func (c *Curve) ScalarMult(pt *Point, k *big.Int) (*Point, error) {
	if k.Sign() < 0 {
		return nil, errors.New("ecc: negative scalar")
	}
	acc := c.Infinity()
	for i := k.BitLen() - 1; i >= 0; i-- {
		acc = c.Double(acc)
		if k.Bit(i) == 1 {
			acc = c.Add(acc, pt)
		}
	}
	return acc, nil
}

// ScalarMultLadder returns k·pt with a Montgomery ladder: one double and
// one add per scalar bit regardless of its value — the uniform operation
// sequence the paper's side-channel argument calls for at the protocol
// level.
func (c *Curve) ScalarMultLadder(pt *Point, k *big.Int) (*Point, error) {
	if k.Sign() < 0 {
		return nil, errors.New("ecc: negative scalar")
	}
	r0 := c.Infinity()
	r1 := &Point{X: new(big.Int).Set(pt.X), Y: new(big.Int).Set(pt.Y), Z: new(big.Int).Set(pt.Z)}
	for i := k.BitLen() - 1; i >= 0; i-- {
		if k.Bit(i) == 0 {
			r1 = c.Add(r0, r1)
			r0 = c.Double(r0)
		} else {
			r0 = c.Add(r0, r1)
			r1 = c.Double(r1)
		}
	}
	return r0, nil
}

// ScalarBaseMult returns k·G.
func (c *Curve) ScalarBaseMult(k *big.Int) (*Point, error) {
	g, err := c.Base()
	if err != nil {
		return nil, err
	}
	return c.ScalarMult(g, k)
}

// Affine converts a Jacobian point to affine integer-domain coordinates.
// The inversion Z⁻¹ = Z^(p-2) runs through the Montgomery exponentiator
// (Fermat), keeping the whole pipeline on the paper's multiplier. The
// second return is false for the point at infinity.
func (c *Curve) Affine(pt *Point) (x, y *big.Int, ok bool) {
	if c.IsInfinity(pt) {
		return nil, nil, false
	}
	z := c.fromM(pt.Z)
	pm2 := new(big.Int).Sub(c.P, big.NewInt(2))
	zinv, _, err := c.ctx.Exp(z, pm2)
	if err != nil {
		panic(fmt.Sprintf("ecc: inversion failed: %v", err))
	}
	zinvM := c.toM(zinv)
	zinv2 := c.mul(zinvM, zinvM)
	zinv3 := c.mul(zinv2, zinvM)
	x = c.fromM(c.mul(pt.X, zinv2))
	y = c.fromM(c.mul(pt.Y, zinv3))
	return x, y, true
}

// Equal reports whether two Jacobian points denote the same curve point.
func (c *Curve) Equal(p1, p2 *Point) bool {
	i1, i2 := c.IsInfinity(p1), c.IsInfinity(p2)
	if i1 || i2 {
		return i1 == i2
	}
	x1, y1, _ := c.Affine(p1)
	x2, y2, _ := c.Affine(p2)
	return x1.Cmp(x2) == 0 && y1.Cmp(y2) == 0
}

// P256 returns the NIST P-256 curve (parameters hardcoded from FIPS
// 186-4), used to cross-check this package against crypto/elliptic.
func P256() (*Curve, error) {
	p, _ := new(big.Int).SetString("ffffffff00000001000000000000000000000000ffffffffffffffffffffffff", 16)
	b, _ := new(big.Int).SetString("5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b", 16)
	gx, _ := new(big.Int).SetString("6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296", 16)
	gy, _ := new(big.Int).SetString("4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5", 16)
	n, _ := new(big.Int).SetString("ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551", 16)
	a := new(big.Int).Sub(p, big.NewInt(3)) // a = -3 mod p
	return NewCurve(p, a, b, gx, gy, n)
}

// P384 returns the NIST P-384 curve (FIPS 186-4 parameters).
func P384() (*Curve, error) {
	p, _ := new(big.Int).SetString("fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffeffffffff0000000000000000ffffffff", 16)
	b, _ := new(big.Int).SetString("b3312fa7e23ee7e4988e056be3f82d19181d9c6efe8141120314088f5013875ac656398d8a2ed19d2a85c8edd3ec2aef", 16)
	gx, _ := new(big.Int).SetString("aa87ca22be8b05378eb1c71ef320ad746e1d3b628ba79b9859f741e082542a385502f25dbf55296c3a545e3872760ab7", 16)
	gy, _ := new(big.Int).SetString("3617de4a96262c6f5d9e98bf9292dc29f8f41dbd289a147ce9da3113b5f0b8c00a60b1ce1d7e819d7a431d7c90ea0e5f", 16)
	n, _ := new(big.Int).SetString("ffffffffffffffffffffffffffffffffffffffffffffffffc7634d81f4372ddf581a0db248b0a77aecec196accc52973", 16)
	a := new(big.Int).Sub(p, big.NewInt(3))
	return NewCurve(p, a, b, gx, gy, n)
}

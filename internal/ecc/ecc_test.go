package ecc

import (
	"crypto/elliptic"
	"math/big"
	"math/rand"
	"testing"
)

// tinyCurve returns y² = x³ + 2x + 3 over GF(97) with base point (3, 6).
// Its group order is small enough to verify by brute force.
func tinyCurve(t *testing.T) *Curve {
	t.Helper()
	c, err := NewCurve(big.NewInt(97), big.NewInt(2), big.NewInt(3),
		big.NewInt(3), big.NewInt(6), nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewCurveValidation(t *testing.T) {
	if _, err := NewCurve(big.NewInt(4), big.NewInt(1), big.NewInt(1), nil, nil, nil); err == nil {
		t.Error("even prime accepted")
	}
	// Singular: a = b = 0.
	if _, err := NewCurve(big.NewInt(97), big.NewInt(0), big.NewInt(0), nil, nil, nil); err == nil {
		t.Error("singular curve accepted")
	}
	// Base point off curve.
	if _, err := NewCurve(big.NewInt(97), big.NewInt(2), big.NewInt(3),
		big.NewInt(3), big.NewInt(7), nil); err == nil {
		t.Error("off-curve base point accepted")
	}
}

func TestIsOnCurve(t *testing.T) {
	c := tinyCurve(t)
	if !c.IsOnCurve(big.NewInt(3), big.NewInt(6)) {
		t.Error("base point rejected")
	}
	if c.IsOnCurve(big.NewInt(3), big.NewInt(7)) {
		t.Error("off-curve point accepted")
	}
}

func TestNewPointRejectsOffCurve(t *testing.T) {
	c := tinyCurve(t)
	if _, err := c.NewPoint(big.NewInt(1), big.NewInt(1)); err == nil {
		t.Error("off-curve point constructed")
	}
}

// Affine(NewPoint(x, y)) must round-trip.
func TestAffineRoundTrip(t *testing.T) {
	c := tinyCurve(t)
	pt, err := c.NewPoint(big.NewInt(3), big.NewInt(6))
	if err != nil {
		t.Fatal(err)
	}
	x, y, ok := c.Affine(pt)
	if !ok || x.Int64() != 3 || y.Int64() != 6 {
		t.Fatalf("round trip: (%v, %v, %v)", x, y, ok)
	}
	if _, _, ok := c.Affine(c.Infinity()); ok {
		t.Error("infinity has affine coordinates")
	}
}

// Compare Double/Add against brute-force affine group law on the tiny
// curve, over every reachable multiple of G.
func TestGroupLawAgainstBruteForce(t *testing.T) {
	c := tinyCurve(t)
	g, _ := c.Base()

	// Brute-force affine multiples of (3, 6).
	type aff struct{ x, y int64 }
	affAdd := func(p1, p2 *aff) *aff {
		// nil = infinity
		if p1 == nil {
			return p2
		}
		if p2 == nil {
			return p1
		}
		p := int64(97)
		mod := func(v int64) int64 { return ((v % p) + p) % p }
		inv := func(v int64) int64 {
			r := new(big.Int).ModInverse(big.NewInt(mod(v)), big.NewInt(p))
			return r.Int64()
		}
		var lam int64
		if p1.x == p2.x {
			if mod(p1.y+p2.y) == 0 {
				return nil
			}
			lam = mod(mod(3*p1.x*p1.x+2) * inv(2*p1.y))
		} else {
			lam = mod(mod(p2.y-p1.y) * inv(p2.x-p1.x))
		}
		x3 := mod(lam*lam - p1.x - p2.x)
		y3 := mod(lam*(p1.x-x3) - p1.y)
		return &aff{x3, y3}
	}

	ref := &aff{3, 6}
	jac := g
	for k := 2; k <= 40; k++ {
		ref = affAdd(ref, &aff{3, 6})
		jac = c.Add(jac, g)
		if ref == nil {
			if !c.IsInfinity(jac) {
				t.Fatalf("k=%d: expected infinity", k)
			}
			// Both wrapped; continue past infinity.
			ref = nil
			continue
		}
		x, y, ok := c.Affine(jac)
		if !ok || x.Int64() != ref.x || y.Int64() != ref.y {
			t.Fatalf("k=%d: got (%v,%v) want (%d,%d)", k, x, y, ref.x, ref.y)
		}
	}
}

// Doubling via Add(p, p) must agree with Double(p).
func TestAddOfEqualPointsDoubles(t *testing.T) {
	c := tinyCurve(t)
	g, _ := c.Base()
	d1 := c.Double(g)
	d2 := c.Add(g, g)
	if !c.Equal(d1, d2) {
		t.Error("Add(g,g) != Double(g)")
	}
}

// P + (-P) must be infinity.
func TestAddInverse(t *testing.T) {
	c := tinyCurve(t)
	g, _ := c.Base()
	neg, err := c.NewPoint(big.NewInt(3), big.NewInt(97-6))
	if err != nil {
		t.Fatal(err)
	}
	if !c.IsInfinity(c.Add(g, neg)) {
		t.Error("P + (-P) != O")
	}
}

func TestInfinityIdentity(t *testing.T) {
	c := tinyCurve(t)
	g, _ := c.Base()
	if !c.Equal(c.Add(g, c.Infinity()), g) {
		t.Error("P + O != P")
	}
	if !c.Equal(c.Add(c.Infinity(), g), g) {
		t.Error("O + P != P")
	}
	if !c.IsInfinity(c.Double(c.Infinity())) {
		t.Error("2·O != O")
	}
}

// Double-and-add and the Montgomery ladder must agree for many scalars,
// including 0 and 1.
func TestLadderMatchesDoubleAndAdd(t *testing.T) {
	c := tinyCurve(t)
	g, _ := c.Base()
	rng := rand.New(rand.NewSource(111))
	for trial := 0; trial < 60; trial++ {
		k := big.NewInt(int64(trial))
		if trial >= 50 {
			k = new(big.Int).Rand(rng, big.NewInt(1<<30))
		}
		p1, err := c.ScalarMult(g, k)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := c.ScalarMultLadder(g, k)
		if err != nil {
			t.Fatal(err)
		}
		if !c.Equal(p1, p2) {
			t.Fatalf("k=%s: ladder disagrees", k)
		}
	}
	if _, err := c.ScalarMult(g, big.NewInt(-1)); err == nil {
		t.Error("negative scalar accepted")
	}
	if _, err := c.ScalarMultLadder(g, big.NewInt(-1)); err == nil {
		t.Error("negative scalar accepted by ladder")
	}
}

// Cross-check scalar multiplication on P-256 against crypto/elliptic.
func TestP256AgainstStdlib(t *testing.T) {
	c, err := P256()
	if err != nil {
		t.Fatal(err)
	}
	std := elliptic.P256()
	rng := rand.New(rand.NewSource(112))
	for trial := 0; trial < 4; trial++ {
		k := new(big.Int).Rand(rng, c.Order)
		if k.Sign() == 0 {
			k.SetInt64(1)
		}
		pt, err := c.ScalarBaseMult(k)
		if err != nil {
			t.Fatal(err)
		}
		gx, gy, ok := c.Affine(pt)
		if !ok {
			t.Fatal("k·G at infinity unexpectedly")
		}
		wx, wy := std.ScalarBaseMult(k.Bytes())
		if gx.Cmp(wx) != 0 || gy.Cmp(wy) != 0 {
			t.Fatalf("P-256 scalar mult mismatch for k=%s", k)
		}
	}
}

// n·G must be the point at infinity on P-256.
func TestP256OrderAnnihilates(t *testing.T) {
	c, err := P256()
	if err != nil {
		t.Fatal(err)
	}
	pt, err := c.ScalarBaseMult(c.Order)
	if err != nil {
		t.Fatal(err)
	}
	if !c.IsInfinity(pt) {
		t.Error("n·G != O on P-256")
	}
}

// The field-multiplication counter feeds the hardware cost model; a
// ladder step must cost a fixed number of multiplications per bit.
func TestFieldMulAccounting(t *testing.T) {
	c := tinyCurve(t)
	g, _ := c.Base()
	c.ResetFieldMuls()
	if _, err := c.ScalarMultLadder(g, big.NewInt(0xFFFF)); err != nil {
		t.Fatal(err)
	}
	if c.FieldMulCount() == 0 {
		t.Error("no field multiplications counted")
	}
}

// P-384 cross-check against crypto/elliptic.
func TestP384AgainstStdlib(t *testing.T) {
	c, err := P384()
	if err != nil {
		t.Fatal(err)
	}
	std := elliptic.P384()
	rng := rand.New(rand.NewSource(243))
	g, err := c.Base()
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 2; trial++ {
		k := new(big.Int).Rand(rng, c.Order)
		if k.Sign() == 0 {
			k.SetInt64(1)
		}
		pt, err := c.ScalarMult(g, k)
		if err != nil {
			t.Fatal(err)
		}
		gx, gy, ok := c.Affine(pt)
		if !ok {
			t.Fatal("unexpected infinity")
		}
		wx, wy := std.ScalarBaseMult(k.Bytes())
		if gx.Cmp(wx) != 0 || gy.Cmp(wy) != 0 {
			t.Fatalf("P-384 mismatch")
		}
	}
}

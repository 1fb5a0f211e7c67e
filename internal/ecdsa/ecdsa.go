// Package ecdsa implements ECDSA signatures over the repository's own
// elliptic-curve stack (internal/ecc), completing the paper's §5 vision
// of "a cryptographic device dealing with both types of PKC": RSA
// (internal/rsa) and curve-based signatures share the same Montgomery
// multiplier underneath. Scalar-field inversions are computed with the
// Montgomery exponentiator via Fermat (the group order is prime), so
// every modular operation in the scheme ultimately runs through the
// paper's Algorithm 2. Hashing uses crypto/sha256 from the standard
// library.
package ecdsa

import (
	"crypto/sha256"
	"errors"
	"math/big"
	"math/rand"

	"repro/internal/ecc"
	"repro/internal/expo"
	"repro/internal/kits"
)

// PublicKey is an ECDSA public key: a curve and a point Q = d·G.
type PublicKey struct {
	Curve  *ecc.Curve
	Qx, Qy *big.Int
}

// PrivateKey adds the secret scalar.
type PrivateKey struct {
	PublicKey
	D *big.Int
}

// GenerateKey draws a private scalar from rng and computes the public
// point. The curve must carry a base point and a prime order.
func GenerateKey(curve *ecc.Curve, rng *rand.Rand) (*PrivateKey, error) {
	if curve.Order == nil {
		return nil, errors.New("ecdsa: curve has no group order")
	}
	nm1 := new(big.Int).Sub(curve.Order, big.NewInt(1))
	d := new(big.Int).Rand(rng, nm1)
	d.Add(d, big.NewInt(1)) // d ∈ [1, n-1]
	q, err := curve.ScalarBaseMult(d)
	if err != nil {
		return nil, err
	}
	qx, qy, ok := curve.Affine(q)
	if !ok {
		return nil, errors.New("ecdsa: public point at infinity")
	}
	return &PrivateKey{
		PublicKey: PublicKey{Curve: curve, Qx: qx, Qy: qy},
		D:         d,
	}, nil
}

// hashToInt converts a message digest to a scalar per FIPS 186-4: take
// the leftmost orderBits bits.
func hashToInt(hash []byte, order *big.Int) *big.Int {
	orderBits := order.BitLen()
	orderBytes := (orderBits + 7) / 8
	if len(hash) > orderBytes {
		hash = hash[:orderBytes]
	}
	e := new(big.Int).SetBytes(hash)
	if excess := len(hash)*8 - orderBits; excess > 0 {
		e.Rsh(e, uint(excess))
	}
	return e
}

// invMod computes a⁻¹ mod n (n prime) by Fermat through the Montgomery
// exponentiator on the CIOS kit, the fastest at every order size.
func invMod(a, n *big.Int) (*big.Int, error) {
	ex, err := expo.NewKit(n, kits.CIOS)
	if err != nil {
		return nil, err
	}
	red := new(big.Int).Mod(a, n)
	if red.Sign() == 0 {
		return nil, errors.New("ecdsa: inversion of zero")
	}
	nm2 := new(big.Int).Sub(n, big.NewInt(2))
	inv, _, err := ex.ModExp(red, nm2)
	return inv, err
}

// Sign produces an (r, s) signature over message, drawing nonces from
// rng until both signature halves are nonzero.
func Sign(priv *PrivateKey, message []byte, rng *rand.Rand) (r, s *big.Int, err error) {
	curve := priv.Curve
	n := curve.Order
	digest := sha256.Sum256(message)
	e := hashToInt(digest[:], n)
	nm1 := new(big.Int).Sub(n, big.NewInt(1))

	for attempt := 0; attempt < 100; attempt++ {
		k := new(big.Int).Rand(rng, nm1)
		k.Add(k, big.NewInt(1))
		pt, err := curve.ScalarBaseMult(k)
		if err != nil {
			return nil, nil, err
		}
		x1, _, ok := curve.Affine(pt)
		if !ok {
			continue
		}
		r = new(big.Int).Mod(x1, n)
		if r.Sign() == 0 {
			continue
		}
		kInv, err := invMod(k, n)
		if err != nil {
			return nil, nil, err
		}
		// s = k⁻¹(e + r·d) mod n
		s = new(big.Int).Mul(r, priv.D)
		s.Add(s, e)
		s.Mul(s, kInv)
		s.Mod(s, n)
		if s.Sign() == 0 {
			continue
		}
		return r, s, nil
	}
	return nil, nil, errors.New("ecdsa: signing exhausted attempts")
}

// Verify checks an (r, s) signature over message.
func Verify(pub *PublicKey, message []byte, r, s *big.Int) bool {
	curve := pub.Curve
	n := curve.Order
	if n == nil {
		return false
	}
	if r.Sign() <= 0 || r.Cmp(n) >= 0 || s.Sign() <= 0 || s.Cmp(n) >= 0 {
		return false
	}
	digest := sha256.Sum256(message)
	e := hashToInt(digest[:], n)

	w, err := invMod(s, n)
	if err != nil {
		return false
	}
	u1 := new(big.Int).Mul(e, w)
	u1.Mod(u1, n)
	u2 := new(big.Int).Mul(r, w)
	u2.Mod(u2, n)

	p1, err := curve.ScalarBaseMult(u1)
	if err != nil {
		return false
	}
	q, err := curve.NewPoint(pub.Qx, pub.Qy)
	if err != nil {
		return false
	}
	p2, err := curve.ScalarMult(q, u2)
	if err != nil {
		return false
	}
	sum := curve.Add(p1, p2)
	x1, _, ok := curve.Affine(sum)
	if !ok {
		return false
	}
	v := new(big.Int).Mod(x1, n)
	return v.Cmp(r) == 0
}

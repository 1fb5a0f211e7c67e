// Package rsa implements the application the paper's §4.5 motivates:
// textbook RSA over the reproduced Montgomery exponentiator. Everything
// cryptographic is built from this repository's own arithmetic — prime
// generation uses Miller–Rabin whose modular exponentiations run through
// internal/mont, and encryption/decryption run through internal/expo
// (optionally through the cycle-accurate simulated circuit).
//
// This is *raw* RSA — no padding — matching the paper's scope
// (C = M^E mod N); it demonstrates the multiplier, it is not a secure
// encryption scheme.
package rsa

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"

	"repro/internal/expo"
	"repro/internal/kits"
	"repro/internal/mont"
)

// PublicKey is an RSA public key (N, E).
type PublicKey struct {
	N *big.Int
	E *big.Int
}

// PrivateKey is an RSA private key with the CRT constants.
type PrivateKey struct {
	PublicKey
	D *big.Int // private exponent

	P, Q *big.Int // prime factors of N
	DP   *big.Int // D mod (P-1)
	DQ   *big.Int // D mod (Q-1)
	QInv *big.Int // Q⁻¹ mod P
}

var (
	one = big.NewInt(1)
	two = big.NewInt(2)
)

// IsProbablePrime runs rounds of Miller–Rabin on the odd candidate n,
// with witnesses drawn from rng, using the repository's own Montgomery
// exponentiation (not math/big.ProbablyPrime) — the point is to dogfood
// the arithmetic the paper builds.
func IsProbablePrime(n *big.Int, rounds int, rng *rand.Rand) (bool, error) {
	if n.Cmp(two) < 0 {
		return false, nil
	}
	if n.Cmp(big.NewInt(3)) <= 0 {
		return true, nil
	}
	if n.Bit(0) == 0 {
		return false, nil
	}
	// n-1 = d·2^s with d odd.
	nm1 := new(big.Int).Sub(n, one)
	d := new(big.Int).Set(nm1)
	s := 0
	for d.Bit(0) == 0 {
		d.Rsh(d, 1)
		s++
	}
	ctx, err := mont.NewCtx(n)
	if err != nil {
		return false, err
	}
	limit := new(big.Int).Sub(n, big.NewInt(3)) // witnesses in [2, n-2]
	for round := 0; round < rounds; round++ {
		a := new(big.Int).Rand(rng, limit)
		a.Add(a, two)
		x, _, err := ctx.Exp(a, d)
		if err != nil {
			return false, err
		}
		if x.Cmp(one) == 0 || x.Cmp(nm1) == 0 {
			continue
		}
		composite := true
		for i := 0; i < s-1; i++ {
			// Plain modular squaring (ctx.Mul would be a Montgomery
			// product, off by a factor R⁻¹).
			x.Mul(x, x)
			x.Mod(x, n)
			if x.Cmp(nm1) == 0 {
				composite = false
				break
			}
		}
		if composite {
			return false, nil
		}
	}
	return true, nil
}

// GeneratePrime returns a random prime of exactly bitLen bits.
func GeneratePrime(bitLen int, rng *rand.Rand) (*big.Int, error) {
	if bitLen < 4 {
		return nil, fmt.Errorf("rsa: prime length %d too small", bitLen)
	}
	span := new(big.Int).Lsh(one, uint(bitLen-1))
	for attempt := 0; attempt < 100*bitLen; attempt++ {
		p := new(big.Int).Rand(rng, span)
		p.Or(p, span)     // force exact bit length
		p.SetBit(p, 0, 1) // force odd
		ok, err := IsProbablePrime(p, 20, rng)
		if err != nil {
			return nil, err
		}
		if ok {
			return p, nil
		}
	}
	return nil, errors.New("rsa: prime generation exhausted attempts")
}

// GenerateKey produces an RSA key pair with an n-bit modulus (n even,
// n ≥ 16) and public exponent e (default 65537 when nil). rng supplies
// all randomness, so key generation is reproducible under a fixed seed.
func GenerateKey(bits int, e *big.Int, rng *rand.Rand) (*PrivateKey, error) {
	if bits < 16 || bits%2 != 0 {
		return nil, fmt.Errorf("rsa: modulus length %d must be even and at least 16", bits)
	}
	if e == nil {
		e = big.NewInt(65537)
	}
	if e.Bit(0) == 0 || e.Cmp(big.NewInt(3)) < 0 {
		return nil, errors.New("rsa: public exponent must be odd and at least 3")
	}
	for attempt := 0; attempt < 1000; attempt++ {
		p, err := GeneratePrime(bits/2, rng)
		if err != nil {
			return nil, err
		}
		q, err := GeneratePrime(bits/2, rng)
		if err != nil {
			return nil, err
		}
		if p.Cmp(q) == 0 {
			continue
		}
		if p.Cmp(q) < 0 {
			p, q = q, p
		}
		n := new(big.Int).Mul(p, q)
		if n.BitLen() != bits {
			continue
		}
		pm1 := new(big.Int).Sub(p, one)
		qm1 := new(big.Int).Sub(q, one)
		// λ(N) = lcm(p-1, q-1), as in the paper's §4.5.
		gcd := new(big.Int).GCD(nil, nil, pm1, qm1)
		lambda := new(big.Int).Mul(pm1, qm1)
		lambda.Div(lambda, gcd)
		d := new(big.Int).ModInverse(e, lambda)
		if d == nil {
			continue // e not invertible; new primes
		}
		return &PrivateKey{
			PublicKey: PublicKey{N: n, E: new(big.Int).Set(e)},
			D:         d,
			P:         p,
			Q:         q,
			DP:        new(big.Int).Mod(d, pm1),
			DQ:        new(big.Int).Mod(d, qm1),
			QInv:      new(big.Int).ModInverse(q, p),
		}, nil
	}
	return nil, errors.New("rsa: key generation exhausted attempts")
}

// Encrypt computes C = M^E mod N through the exponentiator on the given
// compute kit (kits.Model for the paper-faithful path, kits.CIOS for
// host speed, kits.Sim for the cycle-accurate circuit). It returns the ciphertext and the
// exponentiation report.
func (pub *PublicKey) Encrypt(m *big.Int, k kits.Kit) (*big.Int, expo.Report, error) {
	ex, err := expo.NewKit(pub.N, k)
	if err != nil {
		return nil, expo.Report{}, err
	}
	return ex.ModExp(m, pub.E)
}

// Decrypt computes M = C^D mod N directly (no CRT).
func (priv *PrivateKey) Decrypt(c *big.Int, k kits.Kit) (*big.Int, expo.Report, error) {
	ex, err := expo.NewKit(priv.N, k)
	if err != nil {
		return nil, expo.Report{}, err
	}
	return ex.ModExp(c, priv.D)
}

// DecryptCRT computes M = C^D mod N with the Chinese Remainder Theorem:
// two half-length exponentiations (mod P and mod Q) recombined — the
// standard ~4× speedup, included as the paper's natural extension for
// RSA deployments. The combined cycle report sums both halves.
func (priv *PrivateKey) DecryptCRT(c *big.Int, k kits.Kit) (*big.Int, expo.Report, error) {
	exP, err := expo.NewKit(priv.P, k)
	if err != nil {
		return nil, expo.Report{}, err
	}
	exQ, err := expo.NewKit(priv.Q, k)
	if err != nil {
		return nil, expo.Report{}, err
	}
	cp := new(big.Int).Mod(c, priv.P)
	cq := new(big.Int).Mod(c, priv.Q)
	m1, rep1, err := exP.ModExp(cp, priv.DP)
	if err != nil {
		return nil, expo.Report{}, err
	}
	m2, rep2, err := exQ.ModExp(cq, priv.DQ)
	if err != nil {
		return nil, expo.Report{}, err
	}
	// m = m2 + q·(qInv·(m1 - m2) mod p)
	h := new(big.Int).Sub(m1, m2)
	h.Mul(h, priv.QInv)
	h.Mod(h, priv.P)
	m := new(big.Int).Mul(h, priv.Q)
	m.Add(m, m2)

	rep := expo.Report{
		L:           rep1.L,
		Squares:     rep1.Squares + rep2.Squares,
		Multiplies:  rep1.Multiplies + rep2.Multiplies,
		PreCycles:   rep1.PreCycles + rep2.PreCycles,
		MulCycles:   rep1.MulCycles + rep2.MulCycles,
		PostCycles:  rep1.PostCycles + rep2.PostCycles,
		TotalCycles: rep1.TotalCycles + rep2.TotalCycles,
		SimulatedMulCycles: rep1.SimulatedMulCycles +
			rep2.SimulatedMulCycles,
	}
	return m, rep, nil
}

// Validate checks the internal consistency of a private key.
func (priv *PrivateKey) Validate() error {
	n := new(big.Int).Mul(priv.P, priv.Q)
	if n.Cmp(priv.N) != 0 {
		return errors.New("rsa: N ≠ P·Q")
	}
	pm1 := new(big.Int).Sub(priv.P, one)
	qm1 := new(big.Int).Sub(priv.Q, one)
	gcd := new(big.Int).GCD(nil, nil, pm1, qm1)
	lambda := new(big.Int).Mul(pm1, qm1)
	lambda.Div(lambda, gcd)
	ed := new(big.Int).Mul(priv.E, priv.D)
	ed.Mod(ed, lambda)
	if ed.Cmp(one) != 0 {
		return errors.New("rsa: E·D ≢ 1 mod λ(N)")
	}
	return nil
}

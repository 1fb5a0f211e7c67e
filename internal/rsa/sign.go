package rsa

import (
	"crypto/sha256"
	"errors"
	"math/big"
	"math/rand"

	"repro/internal/expo"
	"repro/internal/kits"
)

// Textbook RSA signatures over SHA-256 digests: s = H(m)^D mod N,
// verified by H(m) ≟ s^E mod N. Like the encryption side, this is the
// unpadded scheme the paper's "digital signatures … uniquely bind a
// message to its sender" introduction refers to — a demonstration of the
// exponentiator, not a deployment-grade scheme (no PSS/PKCS#1 padding).

// SignSHA256 signs a message: the SHA-256 digest, reduced mod N, is
// raised to the private exponent (via CRT when available).
func (priv *PrivateKey) SignSHA256(message []byte, k kits.Kit) (*big.Int, expo.Report, error) {
	digest := sha256.Sum256(message)
	h := new(big.Int).SetBytes(digest[:])
	h.Mod(h, priv.N)
	if h.Sign() == 0 {
		return nil, expo.Report{}, errors.New("rsa: degenerate digest")
	}
	if priv.P != nil && priv.Q != nil {
		return priv.decryptCRTValue(h, k)
	}
	ex, err := expo.NewKit(priv.N, k)
	if err != nil {
		return nil, expo.Report{}, err
	}
	return ex.ModExp(h, priv.D)
}

// decryptCRTValue applies the CRT private-key operation to an arbitrary
// value (shared by Decrypt-style paths and signing).
func (priv *PrivateKey) decryptCRTValue(v *big.Int, k kits.Kit) (*big.Int, expo.Report, error) {
	return priv.DecryptCRT(v, k)
}

// VerifySHA256 checks a signature against a message.
func (pub *PublicKey) VerifySHA256(message []byte, sig *big.Int, k kits.Kit) (bool, error) {
	if sig.Sign() <= 0 || sig.Cmp(pub.N) >= 0 {
		return false, nil
	}
	digest := sha256.Sum256(message)
	h := new(big.Int).SetBytes(digest[:])
	h.Mod(h, pub.N)
	ex, err := expo.NewKit(pub.N, k)
	if err != nil {
		return false, err
	}
	recovered, _, err := ex.ModExp(sig, pub.E)
	if err != nil {
		return false, err
	}
	return recovered.Cmp(h) == 0, nil
}

// DecryptBlinded performs the private-key operation with base blinding,
// the standard countermeasure against the timing/power attacks the
// paper's §5 motivates: a fresh random r masks the ciphertext as
// c·r^E mod N before exponentiation, and the mask is removed with one
// modular inversion afterwards, so the exponentiation's operand sequence
// is decorrelated from the attacker-chosen ciphertext.
func (priv *PrivateKey) DecryptBlinded(c *big.Int, k kits.Kit, rng *rand.Rand) (*big.Int, expo.Report, error) {
	if c.Sign() < 0 || c.Cmp(priv.N) >= 0 {
		return nil, expo.Report{}, errors.New("rsa: ciphertext out of range")
	}
	// Draw r coprime to N (overwhelmingly likely; retry otherwise).
	var r, rInv *big.Int
	for attempt := 0; ; attempt++ {
		if attempt > 100 {
			return nil, expo.Report{}, errors.New("rsa: could not find invertible blind")
		}
		r = new(big.Int).Rand(rng, priv.N)
		if r.Sign() == 0 {
			continue
		}
		if rInv = new(big.Int).ModInverse(r, priv.N); rInv != nil {
			break
		}
	}
	ex, err := expo.NewKit(priv.N, k)
	if err != nil {
		return nil, expo.Report{}, err
	}
	// blindedC = c·r^E mod N
	rE, repBlind, err := ex.ModExp(r, priv.E)
	if err != nil {
		return nil, expo.Report{}, err
	}
	blinded := new(big.Int).Mul(c, rE)
	blinded.Mod(blinded, priv.N)
	// m' = blindedC^D mod N = m·r mod N
	mPrime, rep, err := ex.ModExp(blinded, priv.D)
	if err != nil {
		return nil, expo.Report{}, err
	}
	m := new(big.Int).Mul(mPrime, rInv)
	m.Mod(m, priv.N)
	rep.Squares += repBlind.Squares
	rep.Multiplies += repBlind.Multiplies
	rep.TotalCycles += repBlind.TotalCycles
	rep.SimulatedMulCycles += repBlind.SimulatedMulCycles
	return m, rep, nil
}

// Package cryptosvc turns the modexp engine into a crypto signing
// service: RSA key generation, RSA sign/verify with the private-key
// operation under CRT, and ECDSA sign / batch verify — the workload
// the paper's §4.5 and §5 motivate, executed end to end on the
// reproduced Montgomery arithmetic.
//
// RSA-CRT runs its two half-size exponentiations (mod P and mod Q) as
// two engine jobs submitted in one batch, so a multi-core engine
// schedules them concurrently — the software image of the paper's
// replicated systolic arrays (§5, Fig. 5) — and recombines them with
// Garner's formula. ECDSA batch verification fans its per-signature
// scalar-field inversions (Fermat exponentiations mod the group order)
// through the same engine batch path.
//
// Private-key paths are hardened in the style of the quad-core RSA
// processor of arXiv 2009.03468:
//
//   - Message blinding: the digest is masked with r^E mod N for a
//     fresh random r before exponentiation and unmasked with r⁻¹
//     afterwards, so the exponentiation's operand sequence is
//     decorrelated from attacker-chosen input.
//   - Exponent blinding: each CRT exponent is replaced by
//     d' = d + r·(p−1) for a fresh random r, drawn so that d' has a
//     fixed bit length — the square-and-multiply schedule has constant
//     length and its multiply pattern depends only on the fresh
//     randomizer, independent of the key bits.
//   - Verify-before-release: every signature is checked against the
//     public key before it leaves the service, so a faulted CRT half
//     (the Bellcore attack: one wrong half-exponentiation factors N)
//     surfaces as errs.ErrIntegrity, never as a released signature.
//
// The leakage claims are not taken on faith: sca_gate.go derives the
// multiply-schedule traces the sign path would execute and runs
// internal/sca's fixed-vs-random Welch t-test over them, asserting
// |t| < sca.TVLAThreshold on the blinded path and demonstrating the
// same harness flags the unblinded one.
package cryptosvc

import (
	"context"
	"crypto/hmac"
	crand "crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/big"
	"math/rand"
	"sync"

	"repro/internal/ecc"
	"repro/internal/engine"
	"repro/internal/errs"
	"repro/internal/rsa"
)

// Curve ids are wire-stable: append-only, like the op codes.
const (
	CurveP256 uint8 = 1
	CurveP384 uint8 = 2
)

var (
	curveOnce sync.Once
	curveP256 *ecc.Curve
	curveP384 *ecc.Curve
	curveErr  error
)

// CurveByID resolves a wire curve id to the shared curve instance
// (curves carry a Montgomery context and are built once per process).
func CurveByID(id uint8) (*ecc.Curve, error) {
	curveOnce.Do(func() {
		if curveP256, curveErr = ecc.P256(); curveErr != nil {
			return
		}
		curveP384, curveErr = ecc.P384()
	})
	if curveErr != nil {
		return nil, curveErr
	}
	switch id {
	case CurveP256:
		return curveP256, nil
	case CurveP384:
		return curveP384, nil
	default:
		return nil, fmt.Errorf("cryptosvc: unknown curve id %d: %w", id, errs.ErrBadKey)
	}
}

// ECDSAVerifyItem is one signature to check in a batch: the public
// point, the (R, S) pair and the digest as an integer (see
// checkDigest).
type ECDSAVerifyItem struct {
	Qx, Qy *big.Int
	R, S   *big.Int
	Digest *big.Int
}

// VerifyResult is one batch item's outcome. OK reports signature
// validity; Err is non-nil only for malformed items (bad point, bad
// ranges) or compute failures — an invalid-but-well-formed signature
// is OK=false, Err=nil.
type VerifyResult struct {
	OK  bool
	Err error
}

// Service executes signing-service operations on an engine. It holds
// no key material between calls — every request carries its own key,
// exactly like the wire ops that front it — so any number of servers
// can answer for the same keys (the cluster tier routes repeat-key
// traffic to one home backend only to keep context caches warm).
type Service struct {
	eng      *engine.Engine
	blinding bool

	// seeded is the deterministic blinding source installed by
	// WithBlindSeed — tests and trace campaigns only. When nil (the
	// default, and the only production configuration) all blinding
	// randomness comes from crypto/rand.
	mu     sync.Mutex
	seeded *rand.Rand
}

// drawFunc produces a uniform value in [0, bound). The service's own
// source is Service.randInt; the SCA campaign substitutes a seeded one
// so trace derivation never touches the live service's state.
type drawFunc func(bound *big.Int) (*big.Int, error)

// Option configures New.
type Option func(*Service)

// blindBits is the bit width of the exponent-blinding randomizer.
const blindBits = 64

// WithBlinding toggles message + exponent blinding on the private-key
// paths (default on). Turning it off exists for benchmarks and for the
// SCA gate's teeth check — production paths should never disable it.
func WithBlinding(on bool) Option { return func(s *Service) { s.blinding = on } }

// WithBlindSeed makes the blinding randomness deterministic — for
// tests and the SCA gate only. Without it the service draws every
// blind from crypto/rand; a predictable blinding source would defeat
// the countermeasures outright.
func WithBlindSeed(seed int64) Option {
	return func(s *Service) { s.seeded = rand.New(rand.NewSource(seed)) }
}

// New builds a signing service over eng. The engine stays
// caller-owned; closing the service's engine fails in-flight calls
// with errs.ErrEngineClosed like any other engine submission.
func New(eng *engine.Engine, opts ...Option) *Service {
	s := &Service{eng: eng, blinding: true}
	for _, o := range opts {
		o(s)
	}
	return s
}

// randInt draws a uniform value in [0, bound) from the service's
// blinding source: crypto/rand by default, the (locked) seeded rand
// only when WithBlindSeed installed one.
func (s *Service) randInt(bound *big.Int) (*big.Int, error) {
	if s.seeded != nil {
		s.mu.Lock()
		defer s.mu.Unlock()
		return new(big.Int).Rand(s.seeded, bound), nil
	}
	v, err := crand.Int(crand.Reader, bound)
	if err != nil {
		return nil, fmt.Errorf("cryptosvc: blinding entropy unavailable: %w", err)
	}
	return v, nil
}

// KeygenRSA generates an RSA key pair with an n-bit modulus, all
// randomness drawn from the given seed — the same (bits, seed) pair
// always yields the same key, which is what makes the wire op
// idempotent and therefore safely retryable.
//
// Reproduction/test use only: the entire key derives from a 64-bit
// seed, capping its effective entropy at 64 bits — brute-forceable,
// and the seed crosses the wire in the clear besides. Keys worth
// protecting are generated locally with KeygenRSACrypto and never
// minted by a remote service.
func (s *Service) KeygenRSA(ctx context.Context, bits int, seed int64) (*rsa.PrivateKey, error) {
	if bits < 16 || bits > 8192 || bits%2 != 0 {
		return nil, fmt.Errorf("cryptosvc: key size %d must be even and in [16, 8192]: %w",
			bits, errs.ErrOperandRange)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Prime generation dogfoods the repository's Montgomery arithmetic
	// (Miller–Rabin witnesses exponentiated through internal/mont); it
	// runs on the serving goroutine, not the engine, because its
	// exponent count is data-dependent and unbounded.
	return rsa.GenerateKey(bits, nil, rand.New(rand.NewSource(seed)))
}

// KeygenRSACrypto generates an RSA key pair with all randomness drawn
// from crypto/rand — the variant for keys that are meant to stay
// secret. It is deliberately NOT a wire op: a key worth protecting is
// generated where it will live, not produced by a remote service and
// shipped back over the network.
func (s *Service) KeygenRSACrypto(ctx context.Context, bits int) (*rsa.PrivateKey, error) {
	if bits < 16 || bits > 8192 || bits%2 != 0 {
		return nil, fmt.Errorf("cryptosvc: key size %d must be even and in [16, 8192]: %w",
			bits, errs.ErrOperandRange)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return rsa.GenerateKey(bits, nil, rand.New(cryptoSource{}))
}

// cryptoSource adapts crypto/rand to math/rand's Source64, so the
// crypto-quality keygen reuses the same dogfooded prime-generation
// path as the deterministic one. An entropy-read failure is
// unrecoverable mid-draw and panics, like crypto/rand.Read itself.
type cryptoSource struct{}

func (cryptoSource) Uint64() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		panic("cryptosvc: crypto/rand read failed: " + err.Error())
	}
	return binary.BigEndian.Uint64(b[:])
}

func (c cryptoSource) Int63() int64 { return int64(c.Uint64() >> 1) }
func (cryptoSource) Seed(int64)     {}

// checkRSAPrivate validates key material before any private-key
// operation touches it. Every failure wraps errs.ErrBadKey.
func checkRSAPrivate(key *rsa.PrivateKey) error {
	if key == nil || key.N == nil || key.E == nil || key.D == nil {
		return fmt.Errorf("cryptosvc: missing RSA key component: %w", errs.ErrBadKey)
	}
	if key.N.Bit(0) == 0 || key.N.BitLen() < 8 {
		return fmt.Errorf("cryptosvc: RSA modulus must be odd and ≥ 8 bits: %w", errs.ErrBadKey)
	}
	if key.E.Sign() <= 0 || key.E.Bit(0) == 0 {
		return fmt.Errorf("cryptosvc: RSA public exponent must be positive and odd: %w", errs.ErrBadKey)
	}
	if key.D.Sign() <= 0 {
		return fmt.Errorf("cryptosvc: RSA private exponent must be positive: %w", errs.ErrBadKey)
	}
	if key.P == nil && key.Q == nil {
		return nil // non-CRT key: N, E, D only
	}
	if key.P == nil || key.Q == nil || key.DP == nil || key.DQ == nil || key.QInv == nil {
		return fmt.Errorf("cryptosvc: partial CRT key: %w", errs.ErrBadKey)
	}
	if new(big.Int).Mul(key.P, key.Q).Cmp(key.N) != 0 {
		return fmt.Errorf("cryptosvc: N ≠ P·Q: %w", errs.ErrBadKey)
	}
	pm1 := new(big.Int).Sub(key.P, big.NewInt(1))
	qm1 := new(big.Int).Sub(key.Q, big.NewInt(1))
	if new(big.Int).Mod(key.D, pm1).Cmp(key.DP) != 0 ||
		new(big.Int).Mod(key.D, qm1).Cmp(key.DQ) != 0 {
		return fmt.Errorf("cryptosvc: CRT exponents disagree with D: %w", errs.ErrBadKey)
	}
	chk := new(big.Int).Mul(key.QInv, key.Q)
	if chk.Mod(chk, key.P).Cmp(big.NewInt(1)) != 0 {
		return fmt.Errorf("cryptosvc: QInv·Q ≢ 1 mod P: %w", errs.ErrBadKey)
	}
	return nil
}

// modexp runs one exponentiation on the engine.
func (s *Service) modexp(ctx context.Context, n, base, exp *big.Int) (*big.Int, error) {
	v, _, err := s.eng.ModExp(ctx, n, base, exp)
	return v, err
}

// SignRSA signs a digest: sig = digest^D mod N, via CRT when the key
// carries its CRT constants — the two half-size exponentiations are
// submitted as one engine batch so a multi-core engine runs them
// concurrently, then recombined with Garner's formula. With blinding
// on (the default) the digest is message-blinded and both CRT
// exponents are additively blinded to a fixed bit length. The
// signature is verified against the public key before release; a
// mismatch (a faulted half — the Bellcore attack vector) returns
// errs.ErrIntegrity and no signature.
func (s *Service) SignRSA(ctx context.Context, key *rsa.PrivateKey, digest *big.Int) (*big.Int, error) {
	if err := checkRSAPrivate(key); err != nil {
		return nil, err
	}
	if digest == nil || digest.Sign() <= 0 {
		return nil, fmt.Errorf("cryptosvc: digest must be positive: %w", errs.ErrOperandRange)
	}
	h := new(big.Int).Mod(digest, key.N)
	if h.Sign() == 0 {
		return nil, fmt.Errorf("cryptosvc: degenerate digest (≡ 0 mod N): %w", errs.ErrOperandRange)
	}

	// Message blinding: base = h·r^E mod N, unblinded by r⁻¹ after the
	// private-key operation (sig' = (h·r^E)^D = h^D·r mod N).
	base := h
	var rInv *big.Int
	if s.blinding {
		r, ri, err := s.drawBlindPair(key.N)
		if err != nil {
			return nil, err
		}
		rInv = ri
		rE, err := s.modexp(ctx, key.N, r, key.E)
		if err != nil {
			return nil, err
		}
		base = new(big.Int).Mul(h, rE)
		base.Mod(base, key.N)
	}

	var sig *big.Int
	var err error
	if key.P != nil {
		sig, err = s.signCRT(ctx, key, base)
	} else {
		// Non-CRT key: without the factorization there is no group
		// order to blind the exponent with; message blinding (above)
		// still applies.
		sig, err = s.modexp(ctx, key.N, base, key.D)
	}
	if err != nil {
		return nil, err
	}
	if rInv != nil {
		sig.Mul(sig, rInv)
		sig.Mod(sig, key.N)
	}

	// Verify-before-release: recompute sig^E mod N and compare with the
	// digest. The check runs on the engine too, but it cannot be fooled
	// by a faulty core — a corrupted verification only rejects a good
	// signature (safe), it cannot make a bad one match h.
	chk, err := s.modexp(ctx, key.N, sig, key.E)
	if err != nil {
		return nil, err
	}
	if chk.Cmp(h) != 0 {
		return nil, fmt.Errorf("cryptosvc: signature failed verify-before-release: %w", errs.ErrIntegrity)
	}
	return sig, nil
}

// drawBlindPair draws r invertible mod n and its inverse.
func (s *Service) drawBlindPair(n *big.Int) (r, rInv *big.Int, err error) {
	for attempt := 0; attempt < 100; attempt++ {
		if r, err = s.randInt(n); err != nil {
			return nil, nil, err
		}
		if r.Sign() == 0 {
			continue
		}
		if rInv = new(big.Int).ModInverse(r, n); rInv != nil {
			return r, rInv, nil
		}
	}
	return nil, nil, fmt.Errorf("cryptosvc: could not draw invertible blind: %w", errs.ErrBadKey)
}

// signCRT runs the two half-size exponentiations as one engine batch
// and Garner-recombines. base is already message-blinded when blinding
// is on.
func (s *Service) signCRT(ctx context.Context, key *rsa.PrivateKey, base *big.Int) (*big.Int, error) {
	dp, dq := key.DP, key.DQ
	if s.blinding {
		var err error
		if dp, err = s.blindExponent(key.DP, key.P, s.randInt); err != nil {
			return nil, err
		}
		if dq, err = s.blindExponent(key.DQ, key.Q, s.randInt); err != nil {
			return nil, err
		}
	}
	jobs := []engine.ModExpJob{
		{N: key.P, Base: new(big.Int).Mod(base, key.P), Exp: dp},
		{N: key.Q, Base: new(big.Int).Mod(base, key.Q), Exp: dq},
	}
	res, err := s.eng.ModExpBatch(ctx, jobs)
	if err != nil {
		return nil, err
	}
	for _, r := range res {
		if r.Err != nil {
			return nil, r.Err
		}
	}
	m1, m2 := res[0].Value, res[1].Value
	// Garner: sig = m2 + Q·(QInv·(m1 − m2) mod P).
	t := new(big.Int).Sub(m1, m2)
	t.Mul(t, key.QInv)
	t.Mod(t, key.P)
	sig := new(big.Int).Mul(t, key.Q)
	sig.Add(sig, m2)
	return sig, nil
}

// blindExponent returns d + r·(p−1) with r drawn from [2^(B−1), 2^B)
// until the sum's bit length equals BitLen(p−1)+B exactly, so every
// blinded exponent for a given prime has the same length: the
// square-and-multiply schedule has constant shape and its multiply
// pattern depends only on the fresh randomizer. (Additive blinding
// leaves d mod 2^v invariant for v = v₂(p−1) — a few trailing
// schedule steps; see the SCA gate's window note.) The randomizer
// comes from draw so the SCA campaign can substitute its own seeded
// source without touching the service's.
func (s *Service) blindExponent(d, p *big.Int, draw drawFunc) (*big.Int, error) {
	pm1 := new(big.Int).Sub(p, big.NewInt(1))
	target := pm1.BitLen() + blindBits
	span := new(big.Int).Lsh(big.NewInt(1), blindBits-1)
	for {
		r, err := draw(span)
		if err != nil {
			return nil, err
		}
		r.Or(r, span) // force the top randomizer bit: r ∈ [2^(B−1), 2^B)
		b := new(big.Int).Mul(r, pm1)
		b.Add(b, d)
		if b.BitLen() == target {
			return b, nil
		}
	}
}

// VerifyRSA checks sig against digest under (n, e). An out-of-range
// or mismatched signature is (false, nil); errors are reserved for bad
// parameters or compute failures.
func (s *Service) VerifyRSA(ctx context.Context, n, e, digest, sig *big.Int) (bool, error) {
	if n == nil || e == nil || n.Bit(0) == 0 || n.BitLen() < 8 || e.Sign() <= 0 {
		return false, fmt.Errorf("cryptosvc: bad RSA public key: %w", errs.ErrBadKey)
	}
	if digest == nil || sig == nil {
		return false, fmt.Errorf("cryptosvc: nil digest or signature: %w", errs.ErrOperandRange)
	}
	if sig.Sign() <= 0 || sig.Cmp(n) >= 0 {
		return false, nil
	}
	recovered, err := s.modexp(ctx, n, sig, e)
	if err != nil {
		return false, err
	}
	h := new(big.Int).Mod(digest, n)
	return recovered.Cmp(h) == 0, nil
}

// deriveNonce derives the ECDSA nonce for (seed, attempt, d, digest)
// deterministically — an RFC-6979-shaped HMAC-DRBG over SHA-256 — so
// the wire op is a pure function of its request and safe to retry.
//
// Uniformity matters as much as determinism here: the construction
// expands an HMAC keystream to the order's full byte length, truncates
// bits2int-style to exactly BitLen(order) bits, and rejection-samples
// until k ∈ [1, n−1]. A single mod-reduced SHA-256 digest would leave
// every P-384 nonce under 2^256 (128 known-zero top bits) and even
// P-256 nonces modulo-biased — either bias lets a lattice/HNP attack
// recover the private scalar from a handful of signatures. Each
// variable-length input is length-prefixed so distinct (d, digest)
// pairs can never collide into the same transcript and hence the same
// nonce across different keys.
func deriveNonce(order *big.Int, seed int64, attempt int, d, digest *big.Int) *big.Int {
	// Extract: bind every request field into one PRK.
	mac := hmac.New(sha256.New, []byte("montsys-ecdsa-nonce/v2"))
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(seed))
	mac.Write(buf[:])
	binary.BigEndian.PutUint64(buf[:], uint64(attempt))
	mac.Write(buf[:])
	writeLenPrefixed(mac, d)
	writeLenPrefixed(mac, digest)
	prk := mac.Sum(nil)

	qBits := order.BitLen()
	qBytes := (qBits + 7) / 8
	for ctr := uint64(0); ; ctr++ {
		// Expand: counter-mode HMAC keystream of ≥ qBytes per candidate.
		stream := make([]byte, 0, qBytes+sha256.Size)
		for block := uint64(0); len(stream) < qBytes; block++ {
			m := hmac.New(sha256.New, prk)
			binary.BigEndian.PutUint64(buf[:], ctr)
			m.Write(buf[:])
			binary.BigEndian.PutUint64(buf[:], block)
			m.Write(buf[:])
			stream = m.Sum(stream)
		}
		k := new(big.Int).SetBytes(stream[:qBytes])
		k.Rsh(k, uint(8*qBytes-qBits)) // bits2int: keep the top qBits
		if k.Sign() > 0 && k.Cmp(order) < 0 {
			return k // uniform over [1, n−1]
		}
	}
}

// writeLenPrefixed feeds v's minimal big-endian bytes into w preceded
// by their 8-byte big-endian length, keeping field boundaries
// unambiguous in the hashed transcript.
func writeLenPrefixed(w io.Writer, v *big.Int) {
	b := v.Bytes()
	var lenBuf [8]byte
	binary.BigEndian.PutUint64(lenBuf[:], uint64(len(b)))
	w.Write(lenBuf[:])
	w.Write(b)
}

// checkDigest rejects an ECDSA digest longer than the group order.
// The caller turns its hash into the digest the FIPS 186-4 way, as
// crypto/ecdsa does: keep the hash's leftmost order-bit-length bits. A
// hash that fits the order (SHA-256 on P-256 and P-384) is the digest
// whole. An integer has lost the hash's byte length that the rule
// depends on, so a longer digest has no standard signature here. A
// digest no longer than the order is used reduced mod the order, as
// the standard does.
func checkDigest(digest, order *big.Int) error {
	if digest.BitLen() > order.BitLen() {
		return fmt.Errorf("cryptosvc: ECDSA digest of %d bits exceeds the %d-bit group order (truncate the hash): %w",
			digest.BitLen(), order.BitLen(), errs.ErrOperandRange)
	}
	return nil
}

// SignECDSA signs a digest with the private scalar d on the identified
// curve, deriving the nonce deterministically from seed. The
// scalar-field inversion runs through the engine (Fermat), blinded: a
// fresh random u masks the inversion input (k⁻¹ = u·(u·k)⁻¹) and the
// private-scalar product (s = (u·k)⁻¹·(u·e + r·(u·d))), so neither k
// nor d meets the engine unmasked. The signature equation is
// re-checked with the locally known nonce before release; a faulted
// inversion returns errs.ErrIntegrity.
func (s *Service) SignECDSA(ctx context.Context, curveID uint8, d, digest *big.Int, seed int64) (r, sOut *big.Int, err error) {
	curve, err := CurveByID(curveID)
	if err != nil {
		return nil, nil, err
	}
	n := curve.Order
	if d == nil || d.Sign() <= 0 || d.Cmp(n) >= 0 {
		return nil, nil, fmt.Errorf("cryptosvc: ECDSA scalar out of [1, order-1]: %w", errs.ErrBadKey)
	}
	if digest == nil || digest.Sign() < 0 {
		return nil, nil, fmt.Errorf("cryptosvc: bad ECDSA digest: %w", errs.ErrOperandRange)
	}
	if err := checkDigest(digest, n); err != nil {
		return nil, nil, err
	}
	e := new(big.Int).Mod(digest, n)
	nm2 := new(big.Int).Sub(n, big.NewInt(2))

	for attempt := 0; attempt < 100; attempt++ {
		k := deriveNonce(n, seed, attempt, d, digest)
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

		// Masked inversion and combination.
		u := big.NewInt(1)
		if s.blinding {
			nm1 := new(big.Int).Sub(n, big.NewInt(1))
			if u, err = s.randInt(nm1); err != nil {
				return nil, nil, err
			}
			u.Add(u, big.NewInt(1))
		}
		uk := new(big.Int).Mul(u, k)
		uk.Mod(uk, n)
		ukInv, err := s.modexp(ctx, n, uk, nm2) // (u·k)⁻¹ by Fermat
		if err != nil {
			return nil, nil, err
		}
		ud := new(big.Int).Mul(u, d)
		ud.Mod(ud, n)
		t := new(big.Int).Mul(r, ud) // u·(e + r·d) mod n
		t.Add(t, new(big.Int).Mul(u, e))
		t.Mod(t, n)
		sOut = new(big.Int).Mul(ukInv, t)
		sOut.Mod(sOut, n)
		if sOut.Sign() == 0 {
			continue
		}

		// Verify-before-release with the locally known nonce:
		// s·k ≡ e + r·d (mod n) must hold, or the engine's inversion
		// was corrupted.
		lhs := new(big.Int).Mul(sOut, k)
		lhs.Mod(lhs, n)
		rhs := new(big.Int).Mul(r, d)
		rhs.Add(rhs, e)
		rhs.Mod(rhs, n)
		if lhs.Cmp(rhs) != 0 {
			return nil, nil, fmt.Errorf("cryptosvc: ECDSA signature failed verify-before-release: %w", errs.ErrIntegrity)
		}
		return r, sOut, nil
	}
	return nil, nil, fmt.Errorf("cryptosvc: ECDSA signing exhausted attempts: %w", errs.ErrOperandRange)
}

// VerifyECDSABatch checks a batch of signatures on one curve. The
// per-item scalar-field inversions (w = s⁻¹ mod order, by Fermat) are
// fanned through the engine's batch path in a single submission —
// exactly how batched modexp rides the replicated cores — then each
// item finishes with local curve arithmetic. Results are positional;
// a malformed item fails alone (VerifyResult.Err), it never fails the
// batch.
func (s *Service) VerifyECDSABatch(ctx context.Context, curveID uint8, items []ECDSAVerifyItem) ([]VerifyResult, error) {
	curve, err := CurveByID(curveID)
	if err != nil {
		return nil, err
	}
	n := curve.Order
	nm2 := new(big.Int).Sub(n, big.NewInt(2))
	out := make([]VerifyResult, len(items))

	// Phase 1: validate, and collect inversion jobs for the well-formed
	// items.
	jobs := make([]engine.ModExpJob, 0, len(items))
	jobIdx := make([]int, 0, len(items))
	for i, it := range items {
		switch {
		case it.Qx == nil || it.Qy == nil || it.R == nil || it.S == nil || it.Digest == nil:
			out[i] = VerifyResult{Err: fmt.Errorf("cryptosvc: item %d: missing field: %w", i, errs.ErrOperandRange)}
		case it.Digest.BitLen() > n.BitLen():
			out[i] = VerifyResult{Err: fmt.Errorf("cryptosvc: item %d: %w", i, checkDigest(it.Digest, n))}
		case !curve.IsOnCurve(it.Qx, it.Qy):
			out[i] = VerifyResult{Err: fmt.Errorf("cryptosvc: item %d: public point not on curve: %w", i, errs.ErrBadKey)}
		case it.R.Sign() <= 0 || it.R.Cmp(n) >= 0 || it.S.Sign() <= 0 || it.S.Cmp(n) >= 0:
			out[i] = VerifyResult{OK: false} // out-of-range (r, s): invalid, not an error
		default:
			jobs = append(jobs, engine.ModExpJob{N: n, Base: it.S, Exp: nm2})
			jobIdx = append(jobIdx, i)
		}
	}
	if len(jobs) == 0 {
		return out, nil
	}

	// Phase 2: all inversions in one engine batch.
	res, err := s.eng.ModExpBatch(ctx, jobs)
	if err != nil {
		return nil, err
	}

	// Phase 3: finish each item with curve arithmetic.
	for j, r := range res {
		i := jobIdx[j]
		if r.Err != nil {
			out[i] = VerifyResult{Err: r.Err}
			continue
		}
		out[i] = verifyOne(curve, items[i], r.Value)
	}
	return out, nil
}

// verifyOne completes one ECDSA verification given w = s⁻¹ mod order.
func verifyOne(curve *ecc.Curve, it ECDSAVerifyItem, w *big.Int) VerifyResult {
	n := curve.Order
	e := new(big.Int).Mod(it.Digest, n)
	u1 := new(big.Int).Mul(e, w)
	u1.Mod(u1, n)
	u2 := new(big.Int).Mul(it.R, w)
	u2.Mod(u2, n)
	q, err := curve.NewPoint(it.Qx, it.Qy)
	if err != nil {
		return VerifyResult{Err: fmt.Errorf("cryptosvc: %v: %w", err, errs.ErrBadKey)}
	}
	var p1, p2 *ecc.Point
	if u1.Sign() != 0 {
		if p1, err = curve.ScalarBaseMult(u1); err != nil {
			return VerifyResult{Err: err}
		}
	} else {
		p1 = curve.Infinity()
	}
	if p2, err = curve.ScalarMult(q, u2); err != nil {
		return VerifyResult{Err: err}
	}
	sum := curve.Add(p1, p2)
	x1, _, ok := curve.Affine(sum)
	if !ok {
		return VerifyResult{OK: false}
	}
	v := new(big.Int).Mod(x1, n)
	return VerifyResult{OK: v.Cmp(it.R) == 0}
}

// RSAKeyHandle fingerprints an RSA key by its modulus — the routing
// key the cluster tier feeds into the same rendezvous-hash plane that
// routes raw modexp by modulus, so repeat-key signing traffic lands on
// the backend whose P/Q Montgomery contexts are already warm.
func RSAKeyHandle(n *big.Int) []byte {
	if n == nil {
		return nil
	}
	h := sha256.New()
	h.Write([]byte("montsys-rsa-key"))
	h.Write(n.Bytes())
	return h.Sum(nil)
}

// ECDSAKeyHandle fingerprints an ECDSA key (public point or private
// scalar bytes — whatever identifies the key on the caller's side of
// the wire) together with its curve. The handle never leaves the
// process; it is only an HRW routing input.
func ECDSAKeyHandle(curveID uint8, parts ...*big.Int) []byte {
	h := sha256.New()
	h.Write([]byte("montsys-ecdsa-key"))
	h.Write([]byte{curveID})
	for _, p := range parts {
		if p != nil {
			h.Write(p.Bytes())
		}
	}
	return h.Sum(nil)
}

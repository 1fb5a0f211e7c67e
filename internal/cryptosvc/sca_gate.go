// SCA regression gate: derive the multiply-schedule traces the RSA-CRT
// sign path would execute and run internal/sca's fixed-vs-random Welch
// t-test over them.
//
// The leakage model. A binary square-and-multiply exponentiation
// (expo.Report's accounting, and what the Model and Sim kits run)
// performs, per exponent bit from the MSB down, one squaring always and
// one extra multiply exactly when the bit is 1 — so its power/timing
// profile is a direct function of the exponent's bit pattern.
// ScheduleTrace reifies that profile: point i is the multiply indicator
// of the i-th schedule step (MSB first). A fixed-vs-random TVLA
// campaign over these traces is then the software image of the
// oscilloscope campaign in arXiv 2009.03468: if the fixed-key group's
// schedule is statistically distinguishable from the random group's,
// the key leaks.
//
// The CIOS kit no longer runs that schedule for CRT halves: their
// exponents exceed 64 bits, so highradix.Word.ModExp runs a 5-bit fixed
// window whose product sequence depends only on the exponent's length
// (five squarings and one multiply per window, table rows picked by a
// masked scan), which blinding already fixes. The binary model stays
// the gate's subject anyway: it is the worst case, the schedule the
// Model and Sim kits still execute, and what gives the gate its teeth
// against an unblinded service.
//
// The window. Additive exponent blinding d' = d + r·(p−1) leaves
// d' ≡ d (mod 2^v) for v = v₂(p−1), because r·(p−1) is divisible by
// 2^v — a known residual of the countermeasure: the final v schedule
// steps (v is the 2-adic valuation of p−1, a couple of bits in
// expectation) retain a parity channel no additive blind can close.
// The gate therefore scores the schedule window that blinding is
// responsible for — all but the trailing tailSkip steps — which is
// also what a real campaign sees for >99% of the exponentiation. What
// each kit does about the tail depends on the schedule it runs:
//
//   - Model and Sim run Algorithm 3, so the trailing v₂(p−1) steps keep
//     their parity channel.
//   - CIOS runs highradix.Word.expWindow for exponents longer than
//     binaryMaxBits (64 bits), which every blinded CRT exponent is
//     (the blindBits randomizer alone makes it longer); there the
//     product sequence depends only on the exponent's length, tail
//     included.
//   - CIOS runs expBinary for exponents of binaryMaxBits or fewer (an
//     unblinded half of a small key), so it does not close the channel
//     there.
package cryptosvc

import (
	"fmt"
	"math/big"
	"math/rand"

	"repro/internal/rsa"
	"repro/internal/sca"
)

// tailSkip is the number of trailing schedule steps excluded from the
// gate's scoring window (see the package-section comment above: the
// low bits of an additively blinded exponent retain d mod 2^v).
const tailSkip = 16

// ScheduleTrace returns the square-and-multiply multiply-indicator
// schedule of exp, MSB-aligned over exactly points steps: trace[i] is
// 1 when step i multiplies (bit set), 0 when it only squares; steps
// past the exponent's length are 0.
func ScheduleTrace(exp *big.Int, points int) []int {
	trace := make([]int, points)
	top := exp.BitLen() - 1
	for i := 0; i < points; i++ {
		if bit := top - i; bit >= 0 && exp.Bit(bit) == 1 {
			trace[i] = 1
		}
	}
	return trace
}

// signTrace derives the schedule trace of one sign invocation with
// the given CRT exponent pair: the concatenated schedules of the two
// exponents the engine would execute (blinded first when the service
// blinds), each scored over its window. The campaign's draw source is
// passed explicitly — the live service's blinding source is never
// touched, so a campaign can run concurrently with real signing.
func (s *Service) signTrace(key *rsa.PrivateKey, dp, dq *big.Int, draw drawFunc) ([]int, error) {
	if s.blinding {
		var err error
		if dp, err = s.blindExponent(dp, key.P, draw); err != nil {
			return nil, err
		}
		if dq, err = s.blindExponent(dq, key.Q, draw); err != nil {
			return nil, err
		}
	}
	pPts, qPts := s.windows(key)
	return append(ScheduleTrace(dp, pPts), ScheduleTrace(dq, qPts)...), nil
}

// rngDraw wraps a seeded math/rand source as a drawFunc (campaign use
// only; it never fails).
func rngDraw(rng *rand.Rand) drawFunc {
	return func(bound *big.Int) (*big.Int, error) {
		return new(big.Int).Rand(rng, bound), nil
	}
}

// windows returns the per-prime schedule window lengths for this
// service's blinding configuration.
func (s *Service) windows(key *rsa.PrivateKey) (pPts, qPts int) {
	pLen := new(big.Int).Sub(key.P, big.NewInt(1)).BitLen()
	qLen := new(big.Int).Sub(key.Q, big.NewInt(1)).BitLen()
	if s.blinding {
		pLen += blindBits
		qLen += blindBits
	}
	return pLen - tailSkip, qLen - tailSkip
}

// LeakageResult is one fixed-vs-random campaign's verdict.
type LeakageResult struct {
	MaxT      float64 // max |t| across all schedule points
	Points    int     // trace length
	Traces    int     // traces per group
	Threshold float64 // sca.TVLAThreshold
}

// Leaks reports whether the campaign flags the path.
func (r LeakageResult) Leaks() bool { return r.MaxT > r.Threshold }

// LeakageCampaign runs a fixed-vs-random TVLA campaign of
// tracesPerGroup traces against the sign path for key, deterministic
// under seed. Group A is the schedule the service would execute for
// this fixed key (fresh blinds per trace when blinding is on); group B
// is produced by the *identical* process with a fresh random secret
// exponent pair each trace — the textbook fixed-vs-random-key design,
// so the only variable under test is whether the key's bits reach the
// schedule. It returns the Welch-t verdict; the SCA regression test
// asserts the blinded service does not leak and that the same harness
// flags an unblinded one (the gate's teeth).
func (s *Service) LeakageCampaign(key *rsa.PrivateKey, tracesPerGroup int, seed int64) (LeakageResult, error) {
	if key == nil || key.P == nil || key.Q == nil {
		return LeakageResult{}, fmt.Errorf("cryptosvc: leakage campaign needs a CRT key")
	}
	if tracesPerGroup < 2 {
		return LeakageResult{}, fmt.Errorf("cryptosvc: need ≥ 2 traces per group")
	}
	rng := rand.New(rand.NewSource(seed))
	draw := rngDraw(rng)
	pPts, qPts := s.windows(key)
	pm1 := new(big.Int).Sub(key.P, big.NewInt(1))
	qm1 := new(big.Int).Sub(key.Q, big.NewInt(1))

	fixed := make([][]int, tracesPerGroup)
	random := make([][]int, tracesPerGroup)
	for i := 0; i < tracesPerGroup; i++ {
		var err error
		if fixed[i], err = s.signTrace(key, key.DP, key.DQ, draw); err != nil {
			return LeakageResult{}, err
		}
		dpR := randomSecret(rng, pm1)
		dqR := randomSecret(rng, qm1)
		if random[i], err = s.signTrace(key, dpR, dqR, draw); err != nil {
			return LeakageResult{}, err
		}
	}
	t, err := sca.Welch(fixed, random)
	if err != nil {
		return LeakageResult{}, err
	}
	return LeakageResult{
		MaxT:      sca.MaxAbs(t),
		Points:    pPts + qPts,
		Traces:    tracesPerGroup,
		Threshold: sca.TVLAThreshold,
	}, nil
}

// randomSecret draws a uniform secret exponent in [1, bound).
func randomSecret(rng *rand.Rand, bound *big.Int) *big.Int {
	for {
		e := new(big.Int).Rand(rng, bound)
		if e.Sign() != 0 {
			return e
		}
	}
}

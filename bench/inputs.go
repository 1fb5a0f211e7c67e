package main

import (
	"errors"
	"hash/fnv"
	"math/big"
	"math/rand"

	"repro/internal/bits"
	"repro/internal/rsa"
)

// Every input is drawn from a math/rand stream seeded by the run's seed
// and a stream name, so the same seed gives the same inputs, and each
// workload's inputs do not depend on which other workloads ran.

var (
	one = big.NewInt(1)
	f4  = big.NewInt(65537) // the exponent of every served modexp
)

func rngFor(seed int64, stream string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// randOdd returns an odd number of exactly nbits bits.
func randOdd(rng *rand.Rand, nbits int) *big.Int {
	n := new(big.Int).Rand(rng, new(big.Int).Lsh(one, uint(nbits)))
	n.SetBit(n, nbits-1, 1)
	return n.SetBit(n, 0, 1)
}

// randBelow returns a value in [2, n).
func randBelow(rng *rand.Rand, n *big.Int) *big.Int {
	v := new(big.Int).Rand(rng, new(big.Int).Sub(n, big.NewInt(2)))
	return v.Add(v, big.NewInt(2))
}

// modexpReq is one served F4 exponentiation and its expected answer.
type modexpReq struct {
	n, base, want *big.Int
}

// modexpReqs draws count requests over moduli, choosing each modulus
// with pick, and computes every answer with math/big.
func modexpReqs(rng *rand.Rand, moduli []*big.Int, count int, pick func() int) []modexpReq {
	reqs := make([]modexpReq, count)
	for i := range reqs {
		n := moduli[pick()]
		b := randBelow(rng, n)
		reqs[i] = modexpReq{n: n, base: b, want: new(big.Int).Exp(b, f4, n)}
	}
	return reqs
}

// hotModuli are modexp-hot's moduli: four 1024-bit, then four 2048-bit.
func hotModuli(seed int64) []*big.Int {
	rng := rngFor(seed, "modexp-hot/moduli")
	var ms []*big.Int
	for _, nbits := range []int{1024, 1024, 1024, 1024, 2048, 2048, 2048, 2048} {
		ms = append(ms, randOdd(rng, nbits))
	}
	return ms
}

// hotInputs: 1024 requests spread uniformly over the eight moduli.
func hotInputs(seed int64) []modexpReq {
	ms := hotModuli(seed)
	rng := rngFor(seed, "modexp-hot/requests")
	return modexpReqs(rng, ms, 1024, func() int { return rng.Intn(len(ms)) })
}

const (
	zipfModuli   = 1024 // half 1024-bit, half 2048-bit
	zipfS        = 1.1  // Zipf exponent of modulus popularity
	zipfRequests = 16384
)

// zipfInputs: requests over 1024 moduli whose popularity follows
// Zipf(s=1.1). Sizes alternate along the popularity ranks, so every
// seed sends the same mix of sizes: drawing them at random let the few
// most popular moduli swing the mix, and the latency with it, from
// seed to seed.
func zipfInputs(seed int64) []modexpReq {
	rng := rngFor(seed, "modexp-zipf-lb")
	ms := make([]*big.Int, zipfModuli)
	for i := range ms {
		nbits := 1024
		if i%2 == 1 {
			nbits = 2048
		}
		ms[i] = randOdd(rng, nbits)
	}
	z := rand.NewZipf(rng, zipfS, 1, zipfModuli-1)
	return modexpReqs(rng, ms, zipfRequests, func() int { return int(z.Uint64()) })
}

// signReq is one RSA signature and its expected value h^D mod N.
type signReq struct {
	key          *rsa.PrivateKey
	digest, want *big.Int
}

// signInputs: four 2048-bit keys, sixteen SHA-256-sized digests each.
func signInputs(seed int64) ([]signReq, error) {
	rng := rngFor(seed, "rsa-sign")
	var reqs []signReq
	for k := 0; k < 4; k++ {
		key, err := rsaKey(rng, 2048)
		if err != nil {
			return nil, err
		}
		for d := 0; d < 16; d++ {
			digest := new(big.Int).Rand(rng, new(big.Int).Lsh(one, 256))
			digest.SetBit(digest, 255, 1)
			reqs = append(reqs, signReq{key: key, digest: digest, want: signCRT(key, digest)})
		}
	}
	return reqs, nil
}

// rsaKey makes a deterministic RSA key from rng: primes are seeded
// candidates that pass math/big's ProbablyPrime, and D = E⁻¹ mod λ(N)
// as in the repository's rsa.GenerateKey (whose Miller-Rabin over the
// radix-2 reference arithmetic takes minutes at 2048 bits).
func rsaKey(rng *rand.Rand, nbits int) (*rsa.PrivateKey, error) {
	e := f4
	for attempt := 0; attempt < 100; attempt++ {
		p, q := prime(rng, nbits/2), prime(rng, nbits/2)
		if p.Cmp(q) == 0 {
			continue
		}
		if p.Cmp(q) < 0 {
			p, q = q, p
		}
		pm1, qm1 := new(big.Int).Sub(p, one), new(big.Int).Sub(q, one)
		gcd := new(big.Int).GCD(nil, nil, pm1, qm1)
		lambda := new(big.Int).Mul(pm1, qm1)
		lambda.Div(lambda, gcd)
		d := new(big.Int).ModInverse(e, lambda)
		if d == nil {
			continue
		}
		return &rsa.PrivateKey{
			PublicKey: rsa.PublicKey{N: new(big.Int).Mul(p, q), E: new(big.Int).Set(e)},
			D:         d, P: p, Q: q,
			DP:   new(big.Int).Mod(d, pm1),
			DQ:   new(big.Int).Mod(d, qm1),
			QInv: new(big.Int).ModInverse(q, p),
		}, nil
	}
	return nil, errors.New("rsa key: no key after 100 prime pairs")
}

// prime returns a prime of nbits bits with its top two bits set, so a
// product of two has exactly 2·nbits bits.
func prime(rng *rand.Rand, nbits int) *big.Int {
	for {
		c := new(big.Int).Rand(rng, new(big.Int).Lsh(one, uint(nbits)))
		c.SetBit(c, nbits-1, 1)
		c.SetBit(c, nbits-2, 1)
		c.SetBit(c, 0, 1)
		if c.ProbablyPrime(20) {
			return c
		}
	}
}

// signCRT computes (digest mod N)^D mod N with math/big over the CRT
// halves.
func signCRT(key *rsa.PrivateKey, digest *big.Int) *big.Int {
	h := new(big.Int).Mod(digest, key.N)
	m1 := new(big.Int).Exp(h, key.DP, key.P)
	m2 := new(big.Int).Exp(h, key.DQ, key.Q)
	t := new(big.Int).Sub(m1, m2)
	t.Mul(t, key.QInv)
	t.Mod(t, key.P)
	t.Mul(t, key.Q)
	return t.Add(t, m2)
}

const (
	simL     = 256 // width of the Sim-kit multipliers
	simEBits = 64  // exponent length of the Sim-kit exponentiations
	gateL    = 64  // width of the gate-level netlist
)

// prodReq is one Montgomery product x·y·2^-(l+2) mod N with operands in
// [0, 2N), as the paper's multiplier takes them.
type prodReq struct {
	mod        int // index into paperInput.simModuli
	x, y, want *big.Int
}

// expReq is one Sim-kit Algorithm-3 exponentiation at l = 256.
type expReq struct {
	mod             int // index into paperInput.simModuli
	base, exp, want *big.Int
}

// gateReq is one START→DONE product on the gate-level netlist, with its
// operands as bus vectors.
type gateReq struct {
	n, want    *big.Int
	xv, yv, nv bits.Vec
}

type paperInput struct {
	simModuli []*big.Int
	products  []prodReq // paper-sim's ops
	exp       expReq    // paper-sim's Eq. 10 check
	gates     []gateReq // paper-gates' ops
}

// montProduct draws operands in [0, 2N) and computes x·y·2^-(l+2) mod N.
func montProduct(rng *rand.Rand, n *big.Int, l int) (x, y, want *big.Int) {
	n2 := new(big.Int).Lsh(n, 1)
	x, y = new(big.Int).Rand(rng, n2), new(big.Int).Rand(rng, n2)
	rInv := new(big.Int).ModInverse(new(big.Int).Lsh(one, uint(l+2)), n)
	want = new(big.Int).Mul(x, y)
	want.Mul(want, rInv)
	return x, y, want.Mod(want, n)
}

func paperInputs(seed int64) paperInput {
	rng := rngFor(seed, "paper")
	var in paperInput
	for i := 0; i < 4; i++ {
		in.simModuli = append(in.simModuli, randOdd(rng, simL))
	}
	for i := 0; i < 256; i++ {
		mod := i % len(in.simModuli)
		x, y, want := montProduct(rng, in.simModuli[mod], simL)
		in.products = append(in.products, prodReq{mod: mod, x: x, y: y, want: want})
	}
	b, e := randBelow(rng, in.simModuli[0]), randOdd(rng, simEBits)
	in.exp = expReq{mod: 0, base: b, exp: e, want: new(big.Int).Exp(b, e, in.simModuli[0])}
	for i := 0; i < 256; i++ {
		n := randOdd(rng, gateL)
		x, y, want := montProduct(rng, n, gateL)
		in.gates = append(in.gates, gateReq{n: n, want: want,
			xv: bits.FromBig(x, gateL+1), yv: bits.FromBig(y, gateL+1), nv: bits.FromBig(n, gateL)})
	}
	return in
}

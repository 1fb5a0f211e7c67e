package main

// The -scenario sign workload: drive the signing service over the wire
// (montsysd directly or through montsyslb) and verify every signature
// client-side. This is the integration harness CI runs against a fleet
// with one backend killed mid-run — the contract is the same as the
// modexp chaos runs: tolerated error codes are counted, a wrong
// signature is always fatal.

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"time"

	"repro/internal/cryptosvc"
	"repro/internal/rsa"
)

// ecdsaEvery makes every n-th job add an ECDSA sign to the RSA stream;
// the collected signatures are batch-verified over the wire at the end.
const ecdsaEvery = 8

// runSign generates RSA keys over the wire (deterministic seeds, so a
// fleet of backends all agree), then fires cfg.jobs blinded RSA-CRT
// signs across the keys and the -connect addresses, checking sig^e ≡
// digest (mod n) with math/big on every answer.
func runSign(ctx context.Context, cfg sweepConfig, bits []int) error {
	cls, err := cfg.dial()
	if err != nil {
		return err
	}
	defer cls.Close()

	// Setup (untimed): -keys RSA keys per bit length, generated on the
	// remote side. Keygen seeds derive from -seed, so reruns and every
	// backend of a fleet produce identical keys.
	var keys []*rsa.PrivateKey
	kseed := cfg.seed
	for _, l := range bits {
		for k := 0; k < cfg.keys; k++ {
			key, err := cls.pick(len(keys)).KeygenRSA(ctx, l, kseed)
			if err != nil {
				return fmt.Errorf("keygen %d bits (seed %d): %w", l, kseed, err)
			}
			keys = append(keys, key)
			kseed++
		}
	}

	// One ECDSA P-256 key, public point computed locally so the batch
	// verify at the end checks real signatures against a real point.
	curve, err := cryptosvc.CurveByID(cryptosvc.CurveP256)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	ecd := new(big.Int).Rand(rng, new(big.Int).Sub(curve.Order, big.NewInt(2)))
	ecd.Add(ecd, big.NewInt(1))
	pt, err := curve.ScalarBaseMult(ecd)
	if err != nil {
		return err
	}
	qx, qy, ok := curve.Affine(pt)
	if !ok {
		return fmt.Errorf("ECDSA public point at infinity")
	}

	// Fixed workload: per-job RSA digests (reduced mod the job's key
	// modulus) and, every ecdsaEvery-th job, an ECDSA digest.
	rsaDigests := make([]*big.Int, cfg.jobs)
	ecDigests := make([]*big.Int, cfg.jobs)
	for i := range rsaDigests {
		rsaDigests[i] = new(big.Int).Rand(rng, keys[i%len(keys)].N)
		if i%ecdsaEvery == 0 {
			ecDigests[i] = new(big.Int).Rand(rng, curve.Order)
		}
	}

	fmt.Printf("loadgen: sign scenario, %d signs, bits=%v, %d RSA keys, %d remote(s) %s, %d clients\n\n",
		cfg.jobs, bits, len(keys), len(cls), cfg.connect, cfg.clients)

	lats := make([]time.Duration, cfg.jobs)
	var (
		itemsMu sync.Mutex
		items   []cryptosvc.ECDSAVerifyItem
	)
	tally := newErrorTally()
	start := time.Now()
	err = drive(ctx, cfg.jobs, cfg.clients, func(ctx context.Context, _, i int) error {
		key := keys[i%len(keys)]
		cl := cls.pick(i)
		t0 := time.Now()
		sig, err := cl.SignRSA(ctx, key, rsaDigests[i])
		lats[i] = time.Since(t0)
		if err != nil {
			if cfg.tolerate[tally.add(err)] {
				lats[i] = -1
				return nil
			}
			return fmt.Errorf("sign %d: %w", i, err)
		}
		// Client-side verification with math/big — independent of
		// everything the service computed. Always fatal.
		if got := new(big.Int).Exp(sig, key.E, key.N); got.Cmp(rsaDigests[i]) != 0 {
			return fmt.Errorf("sign %d: WRONG SIGNATURE (sig^e != digest mod n)", i)
		}
		if ecDigests[i] == nil {
			return nil
		}
		r, sv, err := cl.SignECDSA(ctx, cryptosvc.CurveP256, ecd, ecDigests[i], cfg.seed+int64(i))
		if err != nil {
			if cfg.tolerate[tally.add(err)] {
				return nil
			}
			return fmt.Errorf("ecdsa sign %d: %w", i, err)
		}
		itemsMu.Lock()
		items = append(items, cryptosvc.ECDSAVerifyItem{
			Qx: qx, Qy: qy, R: r, S: sv, Digest: ecDigests[i]})
		itemsMu.Unlock()
		return nil
	})
	wall := time.Since(start)
	if err != nil {
		return err
	}

	// Every collected ECDSA signature must batch-verify over the wire.
	for off := 0; off < len(items); off += 32 {
		end := min(off+32, len(items))
		res, err := cls.pick(0).VerifyECDSABatch(ctx, cryptosvc.CurveP256, items[off:end])
		if err != nil {
			return fmt.Errorf("batch verify [%d:%d]: %w", off, end, err)
		}
		for j, r := range res {
			if r.Err != nil || !r.OK {
				return fmt.Errorf("batch verify item %d: ok=%v err=%v (WRONG SIGNATURE)", off+j, r.OK, r.Err)
			}
		}
	}

	okl := okLats(lats)
	fmt.Printf("%-8s %12s %12s %10s %10s %10s\n",
		"clients", "wall", "signs/s", "p50", "p95", "p99")
	fmt.Printf("%-8d %12s %12.1f %10s %10s %10s\n",
		cfg.clients, wall.Round(time.Millisecond),
		float64(len(okl))/wall.Seconds(),
		pct(okl, 50), pct(okl, 95), pct(okl, 99))
	fmt.Printf("ok %d/%d rsa signs, %d ecdsa batch-verified  errors: %s\n",
		len(okl), cfg.jobs, len(items), tally)
	return nil
}

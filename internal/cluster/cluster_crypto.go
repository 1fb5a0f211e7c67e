package cluster

// Signing-service routing. The cluster implements server.SignHandler by
// forwarding each op through the same doCall loop as the compute ops,
// so signing inherits failover, hedging, ejection and the retry budget
// unchanged. Routing reuses the HRW affinity plane: instead of the raw
// modulus, signing ops hash a *key handle* (cryptosvc.RSAKeyHandle /
// ECDSAKeyHandle), which pins every request for one private key to one
// backend — warm Montgomery context for that key's moduli — without the
// balancer ever treating private material as a routing key directly.
//
// Hedging: keygen and both sign ops are deterministic (keygen and the
// ECDSA nonce derive from the request seed; RSA blinding cancels out of
// the final signature), so racing a hedge returns the same bytes and is
// safe. Batch verify follows ModExpBatch's rule — failover as a unit,
// no hedge, because racing a whole batch doubles real work.

import (
	"context"
	"math/big"

	"repro/internal/cryptosvc"
	"repro/internal/rsa"
	"repro/internal/server"
)

// Cluster fronts signing backends: montsyslb serves the signing ops by
// routing them here.
var _ server.SignHandler = (*Cluster)(nil)

// keyhandle marks a signing request routed by key handle and returns
// the handle unchanged, so the call sites below stay one expression.
func (c *Cluster) keyhandle(h []byte) []byte {
	if h != nil {
		c.met.keyhandleReqs.Inc()
	}
	return h
}

// KeygenRSA generates a deterministic RSA key on one backend
// (reproduction/test-only — see server.OpKeygenRSA). There is no key
// yet to route by, so it goes to the least-loaded backend; determinism
// (same bits+seed → same key) makes hedging safe.
func (c *Cluster) KeygenRSA(ctx context.Context, bits int, seed int64) (*rsa.PrivateKey, error) {
	return doCall(c, ctx, server.OpKeygenRSA, nil,
		func(ctx context.Context, b *backend) (*rsa.PrivateKey, error) {
			return b.cl.KeygenRSA(ctx, bits, seed)
		})
}

// SignRSA signs on the key's home backend (HRW over the key handle of
// its modulus).
func (c *Cluster) SignRSA(ctx context.Context, key *rsa.PrivateKey, digest *big.Int) (*big.Int, error) {
	var h []byte
	if key != nil {
		h = cryptosvc.RSAKeyHandle(key.N)
	}
	return doCall(c, ctx, server.OpSignRSA, c.keyhandle(h),
		func(ctx context.Context, b *backend) (*big.Int, error) {
			return b.cl.SignRSA(ctx, key, digest)
		})
}

// VerifyRSA verifies on the same home backend as signatures under the
// same modulus, sharing its warm context.
func (c *Cluster) VerifyRSA(ctx context.Context, n, e, digest, sig *big.Int) (bool, error) {
	return doCall(c, ctx, server.OpVerifyRSA, c.keyhandle(cryptosvc.RSAKeyHandle(n)),
		func(ctx context.Context, b *backend) (bool, error) {
			return b.cl.VerifyRSA(ctx, n, e, digest, sig)
		})
}

// SignECDSA signs on the key's home backend (HRW over curve + private
// scalar handle). The nonce derives from seed, so hedged copies agree.
func (c *Cluster) SignECDSA(ctx context.Context, curveID uint8, d, digest *big.Int, seed int64) (*big.Int, *big.Int, error) {
	type sig struct{ r, s *big.Int }
	v, err := doCall(c, ctx, server.OpSignECDSA, c.keyhandle(cryptosvc.ECDSAKeyHandle(curveID, d)),
		func(ctx context.Context, b *backend) (sig, error) {
			r, s, err := b.cl.SignECDSA(ctx, curveID, d, digest, seed)
			return sig{r, s}, err
		})
	if err != nil {
		return nil, nil, err
	}
	return v.r, v.s, nil
}

// VerifyECDSABatch verifies a batch on one backend, routed by the first
// item's public point (batches overwhelmingly verify under one key).
// Like ModExpBatch it fails over as a unit and is not hedged.
func (c *Cluster) VerifyECDSABatch(ctx context.Context, curveID uint8, items []cryptosvc.ECDSAVerifyItem) ([]cryptosvc.VerifyResult, error) {
	var h []byte
	if len(items) > 0 {
		h = cryptosvc.ECDSAKeyHandle(curveID, items[0].Qx, items[0].Qy)
	}
	return doCall(c, ctx, server.OpVerifyECDSABatch, c.keyhandle(h),
		func(ctx context.Context, b *backend) ([]cryptosvc.VerifyResult, error) {
			return b.cl.VerifyECDSABatch(ctx, curveID, items)
		})
}

package server

// Client-side signing-service calls. The method set mirrors
// cryptosvc.Service, so code written against the in-process service
// moves to a remote one by swapping the receiver.

import (
	"context"
	"fmt"
	"math/big"

	"repro/internal/cryptosvc"
	"repro/internal/errs"
	"repro/internal/rsa"
)

// KeygenRSA generates a deterministic RSA key of the given modulus size
// on the remote server. The same (bits, seed) always yields the same
// key, which is what makes the op safely retryable. Reproduction and
// test workloads only: the key's entropy is capped by the 64-bit seed,
// and both seed and private key cross the wire — generate real keys
// locally (cryptosvc.Service.KeygenRSACrypto).
func (c *Client) KeygenRSA(ctx context.Context, bits int, seed int64) (*rsa.PrivateKey, error) {
	resp, err := c.call(ctx, &request{op: OpKeygenRSA, crypto: &cryptoBody{bits: bits, seed: seed}})
	if err != nil {
		return nil, err
	}
	return keyFromBigs(resp.values), nil
}

// SignRSA signs a digest on the remote server with its blinded
// private-key path (CRT when the key carries its factors). The key
// crosses the wire with the request; nil CRT fields are preserved.
func (c *Client) SignRSA(ctx context.Context, key *rsa.PrivateKey, digest *big.Int) (*big.Int, error) {
	if key == nil {
		return nil, fmt.Errorf("server: nil key: %w", errs.ErrBadKey)
	}
	resp, err := c.call(ctx, &request{op: OpSignRSA, crypto: &cryptoBody{key: key, digest: digest}})
	if err != nil {
		return nil, err
	}
	return resp.values[0], nil
}

// VerifyRSA checks sig^E ≡ digest (mod n) on the remote server. A
// well-formed but wrong signature answers (false, nil); malformed key
// material answers an ErrBadKey-wrapped error.
func (c *Client) VerifyRSA(ctx context.Context, n, e, digest, sig *big.Int) (bool, error) {
	resp, err := c.call(ctx, &request{op: OpVerifyRSA, crypto: &cryptoBody{n: n, e: e, digest: digest, sig: sig}})
	if err != nil {
		return false, err
	}
	return resp.values[0].Sign() != 0, nil
}

// SignECDSA signs a digest on the remote server; the nonce is derived
// deterministically from seed, so retries reproduce the signature.
func (c *Client) SignECDSA(ctx context.Context, curveID uint8, d, digest *big.Int, seed int64) (*big.Int, *big.Int, error) {
	resp, err := c.call(ctx, &request{op: OpSignECDSA, crypto: &cryptoBody{curve: curveID, d: d, digest: digest, seed: seed}})
	if err != nil {
		return nil, nil, err
	}
	return resp.values[0], resp.values[1], nil
}

// VerifyECDSABatch verifies a batch of ECDSA signatures remotely with
// per-item verdicts: results[i].OK answers items[i], and per-item
// errors (off-curve point → ErrBadKey, missing fields →
// ErrOperandRange) come back as the same sentinels the in-process
// service returns.
func (c *Client) VerifyECDSABatch(ctx context.Context, curveID uint8, items []cryptosvc.ECDSAVerifyItem) ([]cryptosvc.VerifyResult, error) {
	resp, err := c.call(ctx, &request{op: OpVerifyECDSABatch, crypto: &cryptoBody{curve: curveID, items: items}})
	if err != nil {
		return nil, err
	}
	if len(resp.values) != len(items) {
		return nil, fmt.Errorf("server: verify batch answered %d of %d items: %w",
			len(resp.values), len(items), errs.ErrProtocol)
	}
	results := make([]cryptosvc.VerifyResult, len(items))
	for i := range results {
		if e := errFor(resp.codes[i], resp.msgs[i]); e != nil {
			results[i].Err = e
		} else {
			results[i].OK = resp.values[i].Sign() != 0
		}
	}
	return results, nil
}

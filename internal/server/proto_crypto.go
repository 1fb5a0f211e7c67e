package server

// Wire extension: the signing-service operations, ops 8–12 with traced
// variants 13–17 (rows of opTable). Op values and the CodeBadKey error
// code are appended to the existing ABI — every frame
// an old peer can produce or parse is byte-identical, and an old server
// answers the new ops with CodeProtocol instead of misparsing them, so
// mixed-version fleets keep working (degraded to "no signing", never to
// corruption).
//
// Request bodies (big.Ints as uint32 len ‖ magnitude; a zero-length /
// zero-valued big means "absent" for the optional CRT key fields):
//
//	keygen_rsa          uint32 bits ‖ uint64 seed
//	sign_rsa            n e d p q dp dq qinv digest   (9 bigs)
//	verify_rsa          n e digest sig                (4 bigs)
//	sign_ecdsa          byte curve ‖ d ‖ digest ‖ uint64 seed
//	verify_ecdsa_batch  byte curve ‖ uint32 count ‖ count × (qx qy r s digest)
//
// Response bodies on CodeOK:
//
//	keygen_rsa          n e d p q dp dq qinv          (8 bigs)
//	sign_rsa            sig                           (1 big)
//	verify_rsa          0|1                           (1 big)
//	sign_ecdsa          r s                           (2 bigs)
//	verify_ecdsa_batch  uint32 count ‖ count × (code ‖ 0|1-big on OK, msg else)
//
// The batch verify response reuses the per-item code shape of
// batch_modexp, so one malformed public key doesn't poison its batch.

import (
	"math/big"

	"repro/internal/cryptosvc"
	"repro/internal/rsa"
)

// CodeBadKey reports key material that failed consistency checks
// (errs.ErrBadKey). Appended to the frozen code list.
const CodeBadKey Code = 12

// cryptoBody carries a decoded signing-op request body. Exactly the
// fields the op uses are set; the rest stay zero.
type cryptoBody struct {
	bits int   // keygen_rsa
	seed int64 // keygen_rsa, sign_ecdsa

	key    *rsa.PrivateKey // sign_rsa
	digest *big.Int        // sign_rsa, verify_rsa, sign_ecdsa
	sig    *big.Int        // verify_rsa
	n, e   *big.Int        // verify_rsa public key
	d      *big.Int        // sign_ecdsa secret scalar

	curve uint8                       // sign_ecdsa, verify_ecdsa_batch
	items []cryptosvc.ECDSAVerifyItem // verify_ecdsa_batch
}

// orNil maps the wire's "zero-length big" convention back to nil for
// optional key fields (no legitimate key component is zero).
func orNil(v *big.Int) *big.Int {
	if v == nil || v.Sign() == 0 {
		return nil
	}
	return v
}

// keyFromBigs rebuilds a private key from its wire order n e d p q dp
// dq qinv, mapping absent fields back to nil.
func keyFromBigs(v []*big.Int) *rsa.PrivateKey {
	return &rsa.PrivateKey{
		PublicKey: rsa.PublicKey{N: orNil(v[0]), E: orNil(v[1])},
		D:         orNil(v[2]),
		P:         orNil(v[3]), Q: orNil(v[4]),
		DP: orNil(v[5]), DQ: orNil(v[6]), QInv: orNil(v[7]),
	}
}

// keyBigs lists a private key's fields in wire order (see keyFromBigs).
func keyBigs(k *rsa.PrivateKey) []*big.Int {
	return []*big.Int{k.N, k.E, k.D, k.P, k.Q, k.DP, k.DQ, k.QInv}
}

var keygenRSABody = bodyCodec{
	enc: func(b []byte, req *request) []byte {
		b = appendUint32(b, uint32(req.crypto.bits))
		return appendUint64(b, uint64(req.crypto.seed))
	},
	dec: func(b []byte, req *request) error {
		d := decoder{b}
		bits, err := d.uint32()
		if err != nil {
			return err
		}
		seed, err := d.uint64()
		if err != nil {
			return err
		}
		req.crypto = &cryptoBody{bits: int(bits), seed: int64(seed)}
		return d.done()
	},
}

var signRSABody = bodyCodec{
	enc: func(b []byte, req *request) []byte {
		k := req.crypto.key
		if k == nil {
			k = &rsa.PrivateKey{}
		}
		b = appendBigs(b, keyBigs(k)...)
		return appendBig(b, req.crypto.digest)
	},
	dec: func(b []byte, req *request) error {
		d := decoder{b}
		v := make([]*big.Int, 8)
		cb := &cryptoBody{}
		if err := d.bigs(&v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7], &cb.digest); err != nil {
			return err
		}
		cb.key = keyFromBigs(v)
		req.crypto = cb
		return d.done()
	},
}

var verifyRSABody = bodyCodec{
	enc: func(b []byte, req *request) []byte {
		cb := req.crypto
		return appendBigs(b, cb.n, cb.e, cb.digest, cb.sig)
	},
	dec: func(b []byte, req *request) error {
		d := decoder{b}
		cb := &cryptoBody{}
		if err := d.bigs(&cb.n, &cb.e, &cb.digest, &cb.sig); err != nil {
			return err
		}
		req.crypto = cb
		return d.done()
	},
}

var signECDSABody = bodyCodec{
	enc: func(b []byte, req *request) []byte {
		cb := req.crypto
		b = append(b, cb.curve)
		b = appendBigs(b, cb.d, cb.digest)
		return appendUint64(b, uint64(cb.seed))
	},
	dec: func(b []byte, req *request) error {
		d := decoder{b}
		cb := &cryptoBody{}
		var err error
		if cb.curve, err = d.byte(); err != nil {
			return err
		}
		if err := d.bigs(&cb.d, &cb.digest); err != nil {
			return err
		}
		seed, err := d.uint64()
		if err != nil {
			return err
		}
		cb.seed = int64(seed)
		req.crypto = cb
		return d.done()
	},
}

var verifyECDSABatchBody = bodyCodec{
	enc: func(b []byte, req *request) []byte {
		cb := req.crypto
		b = append(b, cb.curve)
		b = appendUint32(b, uint32(len(cb.items)))
		for _, it := range cb.items {
			b = appendBigs(b, it.Qx, it.Qy, it.R, it.S, it.Digest)
		}
		return b
	},
	dec: func(b []byte, req *request) error {
		d := decoder{b}
		cb := &cryptoBody{}
		var err error
		if cb.curve, err = d.byte(); err != nil {
			return err
		}
		n, err := d.count(5 * 4) // five length prefixes per item
		if err != nil {
			return err
		}
		cb.items = make([]cryptosvc.ECDSAVerifyItem, n)
		for i := range cb.items {
			it := &cb.items[i]
			if err := d.bigs(&it.Qx, &it.Qy, &it.R, &it.S, &it.Digest); err != nil {
				return err
			}
		}
		req.crypto = cb
		return d.done()
	},
}

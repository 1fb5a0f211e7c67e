package cryptosvc

import (
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"errors"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/errs"
)

// TestECDSAInteropStdlib is the served ECDSA path against crypto/ecdsa
// on P-256 and P-384, in both directions: signatures SignECDSA makes
// verify under ecdsa.Verify, and ecdsa.Sign's signatures pass
// VerifyECDSABatch, for digests at and below the order's length. A
// digest longer than the order has no standard meaning as an integer
// (FIPS 186-4 truncates the hash by its byte length) and answers
// ErrOperandRange in sign and verify alike.
func TestECDSAInteropStdlib(t *testing.T) {
	svc := New(testEngine(t), WithBlindSeed(5))
	ctx := context.Background()
	for _, tc := range []struct {
		name  string
		id    uint8
		curve elliptic.Curve
		sizes []int // digest lengths in bytes, at and below the order's
		long  int   // a digest length above the order's
	}{
		{"P-256", CurveP256, elliptic.P256(), []int{32, 20}, 48},
		{"P-384", CurveP384, elliptic.P384(), []int{48, 32}, 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.id)))
			priv, err := ecdsa.GenerateKey(tc.curve, rng)
			if err != nil {
				t.Fatal(err)
			}
			pub := &priv.PublicKey
			for i, size := range tc.sizes {
				hash := make([]byte, size)
				rng.Read(hash)
				hash[0] |= 0x80 // the digest fills its length
				digest := new(big.Int).SetBytes(hash)

				r, s, err := svc.SignECDSA(ctx, tc.id, priv.D, digest, int64(i))
				if err != nil {
					t.Fatalf("%d-byte digest: SignECDSA: %v", size, err)
				}
				if !ecdsa.Verify(pub, hash, r, s) {
					t.Fatalf("%d-byte digest: served signature fails ecdsa.Verify", size)
				}

				sr, ss, err := ecdsa.Sign(rng, priv, hash)
				if err != nil {
					t.Fatal(err)
				}
				res, err := svc.VerifyECDSABatch(ctx, tc.id, []ECDSAVerifyItem{
					{Qx: pub.X, Qy: pub.Y, R: sr, S: ss, Digest: digest},
					{Qx: pub.X, Qy: pub.Y, R: r, S: s, Digest: digest},
				})
				if err != nil {
					t.Fatal(err)
				}
				for j, v := range res {
					if v.Err != nil || !v.OK {
						t.Fatalf("%d-byte digest: item %d verifies as (%v, %v), want (true, nil)",
							size, j, v.OK, v.Err)
					}
				}
			}

			hash := make([]byte, tc.long)
			rng.Read(hash)
			hash[0] |= 0x80
			digest := new(big.Int).SetBytes(hash)
			if _, _, err := svc.SignECDSA(ctx, tc.id, priv.D, digest, 1); !errors.Is(err, errs.ErrOperandRange) {
				t.Fatalf("%d-byte digest: SignECDSA err = %v, want ErrOperandRange", tc.long, err)
			}
			sr, ss, err := ecdsa.Sign(rng, priv, hash)
			if err != nil {
				t.Fatal(err)
			}
			res, err := svc.VerifyECDSABatch(ctx, tc.id, []ECDSAVerifyItem{
				{Qx: pub.X, Qy: pub.Y, R: sr, S: ss, Digest: digest},
			})
			if err != nil {
				t.Fatal(err)
			}
			if !errors.Is(res[0].Err, errs.ErrOperandRange) {
				t.Fatalf("%d-byte digest: verify = (%v, %v), want ErrOperandRange", tc.long, res[0].OK, res[0].Err)
			}
		})
	}
}

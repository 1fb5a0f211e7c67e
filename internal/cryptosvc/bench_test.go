package cryptosvc

import (
	"context"
	"crypto/sha256"
	"math/big"
	"testing"

	"repro/internal/engine"
	"repro/internal/kits"
	"repro/internal/rsa"
)

// RSA sign throughput CRT vs non-CRT and blinded vs not, plus verify —
// all on the CIOS fast path, 2048-bit keys, so the numbers describe the
// production configuration. EXPERIMENTS.md ("RSA-CRT signing") records
// a run.

func benchEngine(b *testing.B) *engine.Engine {
	b.Helper()
	eng, err := engine.New(engine.WithWorkers(4), engine.WithKit(kits.CIOS))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { eng.Close() })
	return eng
}

func benchSign(b *testing.B, bits int, crt, blinding bool) {
	eng := benchEngine(b)
	svc := New(eng, WithBlinding(blinding), WithBlindSeed(1))
	key := testKey(b, bits, 42)
	if !crt {
		key = &rsa.PrivateKey{PublicKey: key.PublicKey, D: key.D}
	}
	digest := new(big.Int).SetBytes([]byte("benchmark digest benchmark digest"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.SignRSA(context.Background(), key, digest); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSignRSA2048CRTBlinded(b *testing.B)    { benchSign(b, 2048, true, true) }
func BenchmarkSignRSA2048CRTUnblinded(b *testing.B)  { benchSign(b, 2048, true, false) }
func BenchmarkSignRSA2048FullBlinded(b *testing.B)   { benchSign(b, 2048, false, true) }
func BenchmarkSignRSA2048FullUnblinded(b *testing.B) { benchSign(b, 2048, false, false) }
func BenchmarkSignRSA1024CRTBlinded(b *testing.B)    { benchSign(b, 1024, true, true) }

func BenchmarkVerifyRSA2048(b *testing.B) {
	eng := benchEngine(b)
	svc := New(eng)
	key := testKey(b, 2048, 42)
	digest := new(big.Int).SetBytes([]byte("benchmark digest benchmark digest"))
	sig, err := svc.SignRSA(context.Background(), key, digest)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := svc.VerifyRSA(context.Background(), key.N, key.E, digest, sig)
		if err != nil || !ok {
			b.Fatalf("verify = (%v, %v)", ok, err)
		}
	}
}

func BenchmarkSignECDSAP256(b *testing.B) {
	eng := benchEngine(b)
	svc := New(eng, WithBlindSeed(1))
	d := big.NewInt(0x1337_c0de_cafe)
	h := sha256.Sum256([]byte("benchmark digest")) // no longer than the order
	digest := new(big.Int).SetBytes(h[:])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := svc.SignECDSA(context.Background(), CurveP256, d, digest, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyECDSABatch8(b *testing.B) {
	eng := benchEngine(b)
	svc := New(eng, WithBlindSeed(1))
	curve, err := CurveByID(CurveP256)
	if err != nil {
		b.Fatal(err)
	}
	d := big.NewInt(0x1337_c0de_cafe)
	pt, _ := curve.ScalarBaseMult(d)
	qx, qy, _ := curve.Affine(pt)
	items := make([]ECDSAVerifyItem, 8)
	for i := range items {
		digest := big.NewInt(int64(1000 + i))
		r, s, err := svc.SignECDSA(context.Background(), CurveP256, d, digest, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		items[i] = ECDSAVerifyItem{Qx: qx, Qy: qy, R: r, S: s, Digest: digest}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := svc.VerifyECDSABatch(context.Background(), CurveP256, items)
		if err != nil {
			b.Fatal(err)
		}
		for j, r := range res {
			if !r.OK || r.Err != nil {
				b.Fatalf("item %d: %+v", j, r)
			}
		}
	}
}

// ECDSA over the reproduced Montgomery stack: sign and verify a message
// on P-256 with the signing service the wire serves (internal/cryptosvc)
// on the paper-faithful Model kit, where every field and scalar
// operation runs through the paper's Algorithm 2, then cross-verify the
// signature with the Go standard library — the "cryptographic device
// dealing with both types of PKC" the paper's conclusion envisions,
// speaking the same wire format as everyone else.
package main

import (
	"context"
	stdecdsa "crypto/ecdsa"
	"crypto/elliptic"
	"crypto/sha256"
	"fmt"
	"log"
	"math/big"
	"math/rand"

	"repro/internal/cryptosvc"
	"repro/internal/engine"
	"repro/internal/kits"
)

func main() {
	eng, err := engine.New(engine.WithKit(kits.Model))
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	svc := cryptosvc.New(eng)
	ctx := context.Background()

	// The service holds no keys: derive Q = d·G here.
	curve, err := cryptosvc.CurveByID(cryptosvc.CurveP256)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(0x5EC))
	d := new(big.Int).Rand(rng, new(big.Int).Sub(curve.Order, big.NewInt(1)))
	d.Add(d, big.NewInt(1)) // d ∈ [1, n-1]
	q, err := curve.ScalarBaseMult(d)
	if err != nil {
		log.Fatal(err)
	}
	qx, qy, ok := curve.Affine(q)
	if !ok {
		log.Fatal("public point at infinity")
	}
	fmt.Printf("P-256 key: Q = (%s…, %s…)\n", qx.Text(16)[:16], qy.Text(16)[:16])

	msg := []byte("Montgomery multiplication without final subtraction")
	hash := sha256.Sum256(msg)
	digest := new(big.Int).SetBytes(hash[:])
	r, s, err := svc.SignECDSA(ctx, cryptosvc.CurveP256, d, digest, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("signature:\n  r = %s\n  s = %s\n", r.Text(16), s.Text(16))

	tampered := sha256.Sum256([]byte("tampered"))
	res, err := svc.VerifyECDSABatch(ctx, cryptosvc.CurveP256, []cryptosvc.ECDSAVerifyItem{
		{Qx: qx, Qy: qy, R: r, S: s, Digest: digest},
		{Qx: qx, Qy: qy, R: r, S: s, Digest: new(big.Int).SetBytes(tampered[:])},
	})
	if err != nil {
		log.Fatal(err)
	}
	if res[0].Err != nil || !res[0].OK {
		log.Fatalf("our own verifier rejected the signature: ok=%v err=%v", res[0].OK, res[0].Err)
	}
	fmt.Println("verified with this repository's stack: OK")

	stdPub := &stdecdsa.PublicKey{Curve: elliptic.P256(), X: qx, Y: qy}
	if !stdecdsa.Verify(stdPub, hash[:], r, s) {
		log.Fatal("crypto/ecdsa rejected the signature")
	}
	fmt.Println("verified with crypto/ecdsa (stdlib):     OK")

	if res[1].Err != nil || res[1].OK {
		log.Fatalf("tampered message accepted: ok=%v err=%v", res[1].OK, res[1].Err)
	}
	fmt.Println("tampered message rejected:                OK")
	fmt.Printf("\nfield multiplications consumed: %d (each one Algorithm-2 pass of 3l+4 cycles)\n",
		curve.FieldMulCount())
}

package cryptosvc

import (
	"context"
	"errors"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/errs"
	"repro/internal/kits"
	"repro/internal/rsa"
)

// testEngine builds a small CIOS-kit engine (the fast path; kits never
// change answers).
func testEngine(t testing.TB, opts ...engine.Option) *engine.Engine {
	t.Helper()
	eng, err := engine.New(append([]engine.Option{
		engine.WithWorkers(2),
		engine.WithKit(kits.CIOS),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

// testPrime draws a deterministic prime of exactly bits bits. Test
// helper only — stdlib primality here, the service's own keygen path
// (rsa.GeneratePrime) dogfoods the Montgomery arithmetic and has its
// own tests.
func testPrime(rng *rand.Rand, bits int) *big.Int {
	span := new(big.Int).Lsh(big.NewInt(1), uint(bits-1))
	for {
		p := new(big.Int).Rand(rng, span)
		p.Or(p, span)
		p.SetBit(p, 0, 1)
		if p.ProbablyPrime(20) {
			return p
		}
	}
}

// testKey builds a consistent CRT key from two deterministic primes —
// fast enough for 256-bit primes, unlike full dogfooded keygen.
func testKey(t testing.TB, bits int, seed int64) *rsa.PrivateKey {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	e := big.NewInt(65537)
	for {
		p := testPrime(rng, bits/2)
		q := testPrime(rng, bits/2)
		if p.Cmp(q) == 0 {
			continue
		}
		if p.Cmp(q) < 0 {
			p, q = q, p
		}
		n := new(big.Int).Mul(p, q)
		pm1 := new(big.Int).Sub(p, big.NewInt(1))
		qm1 := new(big.Int).Sub(q, big.NewInt(1))
		phi := new(big.Int).Mul(pm1, qm1)
		d := new(big.Int).ModInverse(e, phi)
		if d == nil {
			continue
		}
		return &rsa.PrivateKey{
			PublicKey: rsa.PublicKey{N: n, E: new(big.Int).Set(e)},
			D:         d,
			P:         p, Q: q,
			DP:   new(big.Int).Mod(d, pm1),
			DQ:   new(big.Int).Mod(d, qm1),
			QInv: new(big.Int).ModInverse(q, p),
		}
	}
}

func TestSignRSAMatchesBigInt(t *testing.T) {
	eng := testEngine(t)
	key := testKey(t, 512, 1)
	for _, blinding := range []bool{true, false} {
		svc := New(eng, WithBlinding(blinding), WithBlindSeed(7))
		digest := new(big.Int).SetBytes([]byte("the quick brown fox jumps over"))
		sig, err := svc.SignRSA(context.Background(), key, digest)
		if err != nil {
			t.Fatalf("blinding=%v: %v", blinding, err)
		}
		want := new(big.Int).Exp(new(big.Int).Mod(digest, key.N), key.D, key.N)
		if sig.Cmp(want) != 0 {
			t.Fatalf("blinding=%v: sig mismatch vs math/big", blinding)
		}
		ok, err := svc.VerifyRSA(context.Background(), key.N, key.E, digest, sig)
		if err != nil || !ok {
			t.Fatalf("blinding=%v: verify = (%v, %v), want (true, nil)", blinding, ok, err)
		}
	}
}

func TestSignRSANonCRTKey(t *testing.T) {
	eng := testEngine(t)
	svc := New(eng, WithBlindSeed(3))
	full := testKey(t, 256, 2)
	key := &rsa.PrivateKey{PublicKey: full.PublicKey, D: full.D} // strip CRT parts
	digest := big.NewInt(0xdeadbeef)
	sig, err := svc.SignRSA(context.Background(), key, digest)
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Exp(digest, key.D, key.N)
	if sig.Cmp(want) != 0 {
		t.Fatal("non-CRT sig mismatch vs math/big")
	}
}

func TestVerifyRSARejects(t *testing.T) {
	eng := testEngine(t)
	svc := New(eng)
	key := testKey(t, 256, 4)
	digest := big.NewInt(123456789)
	sig, err := svc.SignRSA(context.Background(), key, digest)
	if err != nil {
		t.Fatal(err)
	}
	bad := new(big.Int).Add(sig, big.NewInt(1))
	if ok, err := svc.VerifyRSA(context.Background(), key.N, key.E, digest, bad); err != nil || ok {
		t.Fatalf("tampered sig verified: (%v, %v)", ok, err)
	}
	// Out-of-range signatures are invalid, not errors.
	if ok, err := svc.VerifyRSA(context.Background(), key.N, key.E, digest, key.N); err != nil || ok {
		t.Fatalf("out-of-range sig: (%v, %v)", ok, err)
	}
	// A bad public key is ErrBadKey.
	if _, err := svc.VerifyRSA(context.Background(), big.NewInt(256), key.E, digest, sig); !errors.Is(err, errs.ErrBadKey) {
		t.Fatalf("even modulus: err = %v, want ErrBadKey", err)
	}
}

func TestSignRSABadKey(t *testing.T) {
	eng := testEngine(t)
	svc := New(eng)
	key := testKey(t, 256, 5)
	digest := big.NewInt(99)

	broken := *key
	broken.QInv = new(big.Int).Add(key.QInv, big.NewInt(1))
	if _, err := svc.SignRSA(context.Background(), &broken, digest); !errors.Is(err, errs.ErrBadKey) {
		t.Fatalf("bad QInv: err = %v, want ErrBadKey", err)
	}
	partial := *key
	partial.DQ = nil
	if _, err := svc.SignRSA(context.Background(), &partial, digest); !errors.Is(err, errs.ErrBadKey) {
		t.Fatalf("partial CRT key: err = %v, want ErrBadKey", err)
	}
	wrongN := *key
	wrongN.N = new(big.Int).Add(key.N, big.NewInt(2))
	if _, err := svc.SignRSA(context.Background(), &wrongN, digest); !errors.Is(err, errs.ErrBadKey) {
		t.Fatalf("N ≠ PQ: err = %v, want ErrBadKey", err)
	}
	if _, err := svc.SignRSA(context.Background(), key, big.NewInt(0)); !errors.Is(err, errs.ErrOperandRange) {
		t.Fatalf("zero digest: err = %v, want ErrOperandRange", err)
	}
}

func TestKeygenRSADeterministic(t *testing.T) {
	eng := testEngine(t)
	svc := New(eng)
	k1, err := svc.KeygenRSA(context.Background(), 64, 42)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := svc.KeygenRSA(context.Background(), 64, 42)
	if err != nil {
		t.Fatal(err)
	}
	if k1.N.Cmp(k2.N) != 0 || k1.D.Cmp(k2.D) != 0 {
		t.Fatal("same (bits, seed) produced different keys")
	}
	k3, err := svc.KeygenRSA(context.Background(), 64, 43)
	if err != nil {
		t.Fatal(err)
	}
	if k1.N.Cmp(k3.N) == 0 {
		t.Fatal("different seeds produced the same key")
	}
	if err := k1.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.KeygenRSA(context.Background(), 15, 1); !errors.Is(err, errs.ErrOperandRange) {
		t.Fatalf("odd bits: err = %v, want ErrOperandRange", err)
	}
}

func TestSignECDSADeterministicAndVerifies(t *testing.T) {
	eng := testEngine(t)
	svc := New(eng, WithBlindSeed(11))
	curve, err := CurveByID(CurveP256)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	d := new(big.Int).Rand(rng, new(big.Int).Sub(curve.Order, big.NewInt(2)))
	d.Add(d, big.NewInt(1))
	digest := new(big.Int).SetBytes([]byte("attack at dawn.................."))

	r1, s1, err := svc.SignECDSA(context.Background(), CurveP256, d, digest, 77)
	if err != nil {
		t.Fatal(err)
	}
	// Same seed → same signature (idempotent wire op), despite the
	// blinding mask being drawn fresh: the mask cancels exactly.
	r2, s2, err := svc.SignECDSA(context.Background(), CurveP256, d, digest, 77)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cmp(r2) != 0 || s1.Cmp(s2) != 0 {
		t.Fatal("same seed produced different signatures")
	}

	pt, err := curve.ScalarBaseMult(d)
	if err != nil {
		t.Fatal(err)
	}
	qx, qy, _ := curve.Affine(pt)
	res, err := svc.VerifyECDSABatch(context.Background(), CurveP256,
		[]ECDSAVerifyItem{{Qx: qx, Qy: qy, R: r1, S: s1, Digest: digest}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil || !res[0].OK {
		t.Fatalf("batch verify: %+v", res[0])
	}

	if _, _, err := svc.SignECDSA(context.Background(), 200, d, digest, 1); !errors.Is(err, errs.ErrBadKey) {
		t.Fatalf("unknown curve: err = %v, want ErrBadKey", err)
	}
	if _, _, err := svc.SignECDSA(context.Background(), CurveP256, curve.Order, digest, 1); !errors.Is(err, errs.ErrBadKey) {
		t.Fatalf("scalar ≥ order: err = %v, want ErrBadKey", err)
	}
}

// TestVerifyECDSABatchPerItem checks each batch item on its own: a
// well-formed but wrong signature is OK=false with a nil Err, and only a
// malformed item (here an off-curve point) carries an error.
func TestVerifyECDSABatchPerItem(t *testing.T) {
	eng := testEngine(t)
	svc := New(eng, WithBlindSeed(13))
	curve, err := CurveByID(CurveP256)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	key := func() (d, x, y *big.Int) {
		d = new(big.Int).Rand(rng, new(big.Int).Sub(curve.Order, big.NewInt(2)))
		d.Add(d, big.NewInt(1))
		pt, _ := curve.ScalarBaseMult(d)
		x, y, _ = curve.Affine(pt)
		return d, x, y
	}
	d, qx, qy := key()
	_, otherX, otherY := key()
	digest := big.NewInt(0x5ca1ab1e)
	r, s, err := svc.SignECDSA(context.Background(), CurveP256, d, digest, 5)
	if err != nil {
		t.Fatal(err)
	}
	plus1 := func(v *big.Int) *big.Int { return new(big.Int).Add(v, big.NewInt(1)) }

	rows := []struct {
		name string
		item ECDSAVerifyItem
		ok   bool
		err  error
	}{
		{"valid", ECDSAVerifyItem{Qx: qx, Qy: qy, R: r, S: s, Digest: digest}, true, nil},
		{"wrong digest", ECDSAVerifyItem{Qx: qx, Qy: qy, R: r, S: s, Digest: big.NewInt(1)}, false, nil},
		{"r = 0", ECDSAVerifyItem{Qx: qx, Qy: qy, R: big.NewInt(0), S: s, Digest: digest}, false, nil},
		{"off-curve point", ECDSAVerifyItem{Qx: big.NewInt(1), Qy: big.NewInt(2), R: r, S: s, Digest: digest}, false, errs.ErrBadKey},
		{"tampered s", ECDSAVerifyItem{Qx: qx, Qy: qy, R: r, S: plus1(s), Digest: digest}, false, nil},
		{"tampered r", ECDSAVerifyItem{Qx: qx, Qy: qy, R: plus1(r), S: s, Digest: digest}, false, nil},
		{"r = order", ECDSAVerifyItem{Qx: qx, Qy: qy, R: curve.Order, S: s, Digest: digest}, false, nil},
		{"s = order", ECDSAVerifyItem{Qx: qx, Qy: qy, R: r, S: curve.Order, Digest: digest}, false, nil},
		{"other key", ECDSAVerifyItem{Qx: otherX, Qy: otherY, R: r, S: s, Digest: digest}, false, nil},
	}
	items := make([]ECDSAVerifyItem, len(rows))
	for i, row := range rows {
		items[i] = row.item
	}
	res, err := svc.VerifyECDSABatch(context.Background(), CurveP256, items)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		got := res[i]
		if row.err != nil {
			if !errors.Is(got.Err, row.err) {
				t.Errorf("%s: err = %v, want %v", row.name, got.Err, row.err)
			}
			continue
		}
		if got.OK != row.ok || got.Err != nil {
			t.Errorf("%s: got (OK=%v, Err=%v), want (OK=%v, Err=nil)", row.name, got.OK, got.Err, row.ok)
		}
	}
}

// TestDeriveNonceFillsOrderWidth pins the uniformity fix: nonces must
// cover the full bit width of the group order — in particular P-384
// nonces must exceed 2^256, which a single mod-reduced SHA-256 digest
// can never produce — and always land in [1, order−1].
func TestDeriveNonceFillsOrderWidth(t *testing.T) {
	for _, id := range []uint8{CurveP256, CurveP384} {
		curve, err := CurveByID(id)
		if err != nil {
			t.Fatal(err)
		}
		n := curve.Order
		d := big.NewInt(0x5eed)
		maxBits := 0
		for i := 0; i < 200; i++ {
			k := deriveNonce(n, int64(i), 0, d, big.NewInt(int64(i+1)))
			if k.Sign() <= 0 || k.Cmp(n) >= 0 {
				t.Fatalf("curve %d: nonce %d out of [1, n-1]", id, i)
			}
			if k.BitLen() > maxBits {
				maxBits = k.BitLen()
			}
		}
		// 200 draws with the top bit uniform: P(all top bits zero) = 2^-200.
		if maxBits < n.BitLen() {
			t.Fatalf("curve %d: max nonce width %d < order width %d — biased derivation",
				id, maxBits, n.BitLen())
		}
	}
}

// TestDeriveNonceFieldBoundaries pins the length-prefix fix: shifting
// bytes between d and digest must change the nonce.
func TestDeriveNonceFieldBoundaries(t *testing.T) {
	curve, err := CurveByID(CurveP256)
	if err != nil {
		t.Fatal(err)
	}
	n := curve.Order
	a := deriveNonce(n, 0, 0, big.NewInt(0x0102), big.NewInt(0x03))
	b := deriveNonce(n, 0, 0, big.NewInt(0x01), big.NewInt(0x0203))
	if a.Cmp(b) == 0 {
		t.Fatal("distinct (d, digest) pairs with identical concatenation share a nonce")
	}
	// And it stays deterministic.
	if a.Cmp(deriveNonce(n, 0, 0, big.NewInt(0x0102), big.NewInt(0x03))) != 0 {
		t.Fatal("nonce derivation is not deterministic")
	}
}

func TestKeyHandles(t *testing.T) {
	key := testKey(t, 256, 6)
	h1 := RSAKeyHandle(key.N)
	h2 := RSAKeyHandle(key.N)
	if len(h1) != 32 || string(h1) != string(h2) {
		t.Fatal("RSA key handle not deterministic")
	}
	other := testKey(t, 256, 7)
	if string(h1) == string(RSAKeyHandle(other.N)) {
		t.Fatal("distinct keys share a handle")
	}
	if RSAKeyHandle(nil) != nil {
		t.Fatal("nil modulus must map to nil handle (least-inflight routing)")
	}
	e1 := ECDSAKeyHandle(CurveP256, big.NewInt(5))
	e2 := ECDSAKeyHandle(CurveP384, big.NewInt(5))
	if string(e1) == string(e2) {
		t.Fatal("curve id must be part of the ECDSA handle")
	}
}

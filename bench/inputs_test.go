package main

import (
	"math/big"
	"reflect"
	"testing"
)

// The same seed must give the same inputs, and another seed others.
func TestInputsDeterministic(t *testing.T) {
	if !reflect.DeepEqual(hotInputs(1), hotInputs(1)) {
		t.Error("modexp-hot inputs differ under one seed")
	}
	if reflect.DeepEqual(hotInputs(1), hotInputs(2)) {
		t.Error("modexp-hot inputs equal under two seeds")
	}
	if !reflect.DeepEqual(zipfInputs(3), zipfInputs(3)) {
		t.Error("modexp-zipf-lb inputs differ under one seed")
	}
	if !reflect.DeepEqual(paperInputs(4), paperInputs(4)) {
		t.Error("paper-sim inputs differ under one seed")
	}
	if testing.Short() {
		return
	}
	a, err := signInputs(5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := signInputs(5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("rsa-sign inputs differ under one seed")
	}
}

// Every precomputed answer is the one math/big gives.
func TestInputAnswers(t *testing.T) {
	for _, q := range append(hotInputs(1)[:16], zipfInputs(1)[:16]...) {
		if want := new(big.Int).Exp(q.base, f4, q.n); q.want.Cmp(want) != 0 {
			t.Fatalf("modexp answer %d, want %d", q.want, want)
		}
	}
	in := paperInputs(1)
	q := in.exp
	if want := new(big.Int).Exp(q.base, q.exp, in.simModuli[q.mod]); q.want.Cmp(want) != 0 || q.exp.BitLen() != simEBits {
		t.Fatalf("sim-kit exponentiation answer %d, want %d (exponent %d bits)", q.want, want, q.exp.BitLen())
	}
	// want·2^(l+2) ≡ x·y (mod N), with x and y below 2N.
	checkMont := func(x, y, n, want *big.Int, l int) {
		t.Helper()
		lhs := new(big.Int).Lsh(want, uint(l+2))
		lhs.Sub(lhs, new(big.Int).Mul(x, y))
		n2 := new(big.Int).Lsh(n, 1)
		if lhs.Mod(lhs, n).Sign() != 0 || x.Cmp(n2) >= 0 || y.Cmp(n2) >= 0 || n.BitLen() != l {
			t.Fatalf("product answer %d wrong for x=%d y=%d n=%d", want, x, y, n)
		}
	}
	for _, q := range in.products[:16] {
		checkMont(q.x, q.y, in.simModuli[q.mod], q.want, simL)
	}
	for _, q := range in.gates[:16] {
		checkMont(q.xv.Big(), q.yv.Big(), q.n, q.want, gateL)
	}
	if testing.Short() {
		return
	}
	reqs, err := signInputs(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range reqs[:4] {
		k := q.key
		if k.N.BitLen() != 2048 {
			t.Fatalf("key has %d bits", k.N.BitLen())
		}
		h := new(big.Int).Mod(q.digest, k.N)
		if want := new(big.Int).Exp(h, k.D, k.N); q.want.Cmp(want) != 0 {
			t.Fatalf("signature %d, want h^D mod N = %d", q.want, want)
		}
	}
}

// modexp-zipf-lb's popularity is heavy-headed, its sizes are mixed and
// its working set is larger than both backends' context caches.
func TestZipfShape(t *testing.T) {
	reqs := zipfInputs(1)
	count := map[*big.Int]int{}
	sizes := map[int]int{}
	for _, q := range reqs {
		count[q.n]++
		sizes[q.n.BitLen()]++
	}
	top := 0
	for _, c := range count {
		top = max(top, c)
	}
	if share := float64(top) / float64(len(reqs)); share < 0.05 || share > 0.5 {
		t.Errorf("most popular modulus takes %.3f of requests, want a Zipf head", share)
	}
	if len(count) <= 2*64 {
		t.Errorf("%d distinct moduli, want more than the fleet's 2×64 cached contexts", len(count))
	}
	if sizes[1024] == 0 || sizes[2048] == 0 || len(sizes) != 2 {
		t.Errorf("modulus sizes %v, want 1024 and 2048 only", sizes)
	}
}

package integrity

import (
	"errors"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/errs"
	"repro/internal/mont"
)

// randCtx builds a context for a random odd l-bit modulus.
func randCtx(t *testing.T, rng *rand.Rand, l int) *mont.Ctx {
	t.Helper()
	n := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(l-1)))
	n.SetBit(n, l-1, 1)
	n.SetBit(n, 0, 1)
	ctx, err := mont.NewCtx(n)
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

// TestCheckMont: accepts real products, rejects corrupted and
// out-of-range ones with ErrIntegrity.
func TestCheckMont(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ctx := randCtx(t, rng, 256)
	x := new(big.Int).Rand(rng, ctx.N)
	y := new(big.Int).Rand(rng, ctx.N)
	tt := ctx.Mul(x, y)

	if err := CheckMont(ctx, x, y, tt); err != nil {
		t.Fatalf("clean product refused: %v", err)
	}
	bad := new(big.Int).Set(tt)
	bad.SetBit(bad, 7, bad.Bit(7)^1)
	if err := CheckMont(ctx, x, y, bad); !errors.Is(err, errs.ErrIntegrity) {
		t.Fatalf("corrupted product: err = %v, want ErrIntegrity", err)
	}
	if err := CheckMont(ctx, x, y, new(big.Int).Set(ctx.N2)); !errors.Is(err, errs.ErrIntegrity) {
		t.Fatalf("T = 2N out of range: err = %v, want ErrIntegrity", err)
	}
	if err := CheckMont(ctx, x, y, nil); !errors.Is(err, errs.ErrIntegrity) {
		t.Fatalf("nil T: err = %v, want ErrIntegrity", err)
	}
}

// TestCheckModExp: the full re-verification accepts math/big's answer
// and rejects anything else.
func TestCheckModExp(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 255))
	n.SetBit(n, 255, 1)
	n.SetBit(n, 0, 1)
	base := new(big.Int).Rand(rng, n)
	exp := big.NewInt(65537)
	v := new(big.Int).Exp(base, exp, n)

	if err := CheckModExp(n, base, exp, v); err != nil {
		t.Fatalf("correct result refused: %v", err)
	}
	bad := new(big.Int).Xor(v, big.NewInt(1<<20))
	bad.Mod(bad, n)
	if err := CheckModExp(n, base, exp, bad); !errors.Is(err, errs.ErrIntegrity) {
		t.Fatalf("wrong result: err = %v, want ErrIntegrity", err)
	}
	if err := CheckModExp(n, base, exp, n); !errors.Is(err, errs.ErrIntegrity) {
		t.Fatalf("v = N out of range: err = %v, want ErrIntegrity", err)
	}
}

package montsys

import (
	"context"
	"errors"
	"math/big"
	"testing"
)

// The public façade end to end: reference and simulated multipliers
// agree, exponentiation matches math/big, hardware reports are sane.
func TestPublicAPI(t *testing.T) {
	n := big.NewInt(0xF1F1) // odd 16-bit modulus
	ref, err := NewMultiplier(n)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewMultiplier(n, WithKit(KitSim), WithArrayVariant(Guarded))
	if err != nil {
		t.Fatal(err)
	}
	x, y := big.NewInt(0x1234), big.NewInt(0xBEEF)
	a, err := ref.Mont(x, y)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.Mont(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cmp(b) != 0 {
		t.Fatalf("façade modes disagree")
	}

	p, err := ref.MulMod(x, y)
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Mul(x, y)
	want.Mod(want, n)
	if p.Cmp(want) != 0 {
		t.Fatal("MulMod wrong through façade")
	}

	ex, err := NewExponentiator(n)
	if err != nil {
		t.Fatal(err)
	}
	got, rep, err := ex.ModExp(big.NewInt(3), big.NewInt(1001))
	if err != nil {
		t.Fatal(err)
	}
	if want := new(big.Int).Exp(big.NewInt(3), big.NewInt(1001), n); got.Cmp(want) != 0 {
		t.Fatal("ModExp wrong through façade")
	}
	if rep.TotalCycles <= 0 {
		t.Error("empty report")
	}

	hw, err := Hardware(64)
	if err != nil {
		t.Fatal(err)
	}
	if hw.Mapping.Slices == 0 || hw.CyclesPerMul != 3*64+4 {
		t.Errorf("hardware report: %+v", hw)
	}
}

func TestVariantConstants(t *testing.T) {
	if Faithful.String() != "faithful" || Guarded.String() != "guarded" {
		t.Error("variant constants not wired through")
	}
}

// The options-based exponentiator API must agree with math/big across
// every option combination.
func TestExponentiatorOptions(t *testing.T) {
	n := big.NewInt(0xF1F1)
	base, exp := big.NewInt(0x123), big.NewInt(65537)
	want := new(big.Int).Exp(base, exp, n)

	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"default", nil},
		{"sim-kit", []Option{WithKit(KitSim)}},
		{"sim-kit-faithful", []Option{WithKit(KitSim), WithArrayVariant(Faithful)}},
		{"cios-kit", []Option{WithKit(KitCIOS)}},
		{"big-kit", []Option{WithKit(KitBig)}},
	} {
		ex, err := NewExponentiator(n, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := ex.ModExp(base, exp)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("%s: wrong result", tc.name)
		}
	}
}

// ParseKit round-trips every kit constant and rejects junk.
func TestParseKit(t *testing.T) {
	for _, k := range []Kit{KitModel, KitSim, KitCIOS, KitBig} {
		got, err := ParseKit(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKit(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKit("fpga"); err == nil {
		t.Error("ParseKit accepted junk")
	}
}

// Sentinel errors flow through the public façade and errors.Is.
func TestPublicSentinels(t *testing.T) {
	if _, err := NewMultiplier(big.NewInt(10)); !errors.Is(err, ErrEvenModulus) {
		t.Errorf("even modulus: %v", err)
	}
	if _, err := NewExponentiator(big.NewInt(1)); !errors.Is(err, ErrModulusTooSmall) {
		t.Errorf("small modulus: %v", err)
	}
	m, err := NewMultiplier(big.NewInt(101))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Mont(big.NewInt(-2), big.NewInt(1)); !errors.Is(err, ErrOperandRange) {
		t.Errorf("operand range: %v", err)
	}
}

// The multi-core engine through the public façade: batch fan-out,
// order preservation, stats and the closed sentinel.
func TestPublicEngine(t *testing.T) {
	eng, err := NewEngine(
		WithEngineWorkers(3),
		WithEngineQueueDepth(8),
		WithEngineKit(KitModel),
		WithEngineCtxCacheSize(16),
	)
	if err != nil {
		t.Fatal(err)
	}

	n := big.NewInt(0xF1F1)
	const count = 30
	jobs := make([]ModExpJob, count)
	for i := range jobs {
		jobs[i] = ModExpJob{N: n, Base: big.NewInt(int64(i + 2)), Exp: big.NewInt(1001)}
	}
	results, err := eng.ModExpBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		want := new(big.Int).Exp(jobs[i].Base, jobs[i].Exp, n)
		if r.Value.Cmp(want) != 0 {
			t.Fatalf("job %d out of order or wrong", i)
		}
	}
	if st := eng.Stats(); st.Completed != count || st.Workers != 3 {
		t.Errorf("stats: %s", st)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Mont(context.Background(), n, big.NewInt(1), big.NewInt(2)); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("closed engine: %v", err)
	}
}

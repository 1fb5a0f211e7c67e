package expo

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/bits"
	"repro/internal/kits"
	"repro/internal/logic"
	"repro/internal/systolic"
)

// runExpoNetlist drives the gate-level exponentiator through one
// exponentiation and returns the result and the cycle count.
func runExpoNetlist(t *testing.T, sim *logic.Sim, p *ExpoPorts, ctxRR, m, e, n *big.Int) (*big.Int, int) {
	t.Helper()
	l := p.L
	sim.SetMany(p.MBus, bits.FromBig(m, l+1))
	sim.SetMany(p.EBus, bits.FromBig(e, l))
	sim.SetMany(p.NBus, bits.FromBig(n, l))
	sim.SetMany(p.RRBus, bits.FromBig(ctxRR, l+1))
	sim.Set(p.Start, 1)
	sim.Step()
	sim.Set(p.Start, 0)
	cycles := 1
	// Generous bound: ~2l multiplications of 3l+4 cycles plus control.
	limit := (2*l + 4) * (3*l + 12)
	for sim.Get(p.Done) == 0 {
		sim.Step()
		cycles++
		if cycles > limit {
			t.Fatal("gate-level exponentiator never finished")
		}
	}
	return sim.GetVec(p.Result).Big(), cycles
}

// The gate-level exponentiator must match math/big for random bases and
// exponents, reuse across runs, and stay within a small control-overhead
// factor of the paper's idealized cycle count.
func TestExpoNetlistMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	for _, l := range []int{4, 8, 12} {
		n := randOdd(rng, l)
		ref, err := NewKit(n, kits.Model)
		if err != nil {
			t.Fatal(err)
		}
		nl := logic.New()
		p, err := BuildExpoNetlist(nl, l, systolic.Guarded)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := logic.Compile(nl)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 6; trial++ {
			m := new(big.Int).Rand(rng, n)
			e := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(l)))
			if e.Sign() == 0 {
				e.SetInt64(1)
			}
			want, rep, err := ref.ModExp(m, e)
			if err != nil {
				t.Fatal(err)
			}
			got, cycles, errRun := func() (*big.Int, int, error) {
				g, c := runExpoNetlist(t, sim, p, ref.Ctx().RR, m, e, n)
				return g, c, nil
			}()
			if errRun != nil {
				t.Fatal(errRun)
			}
			// Mont(A,1) may return exactly N for residue 0.
			gotMod := new(big.Int).Mod(got, n)
			if gotMod.Cmp(want) != 0 {
				t.Fatalf("l=%d m=%s e=%s: netlist %s, want %s", l, m, e, got, want)
			}
			// Cycle sanity: the idealized count plus bounded control
			// overhead (a few cycles per multiplication + the skip scan).
			ideal := rep.TotalCycles
			if cycles < rep.MulCycles {
				t.Fatalf("l=%d: %d cycles below the multiplication floor %d", l, cycles, rep.MulCycles)
			}
			maxOverhead := 6*(rep.Squares+rep.Multiplies+2) + 2*l + 16
			if cycles > ideal+maxOverhead {
				t.Fatalf("l=%d: %d cycles exceeds ideal %d + overhead %d", l, cycles, ideal, maxOverhead)
			}
		}
	}
}

// Edge exponents: 1 (no loop iterations), a power of two (squares only),
// all-ones (square+multiply every bit).
func TestExpoNetlistEdgeExponents(t *testing.T) {
	rng := rand.New(rand.NewSource(212))
	l := 8
	n := randOdd(rng, l)
	ref, _ := NewKit(n, kits.Model)
	nl := logic.New()
	p, err := BuildExpoNetlist(nl, l, systolic.Guarded)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := logic.Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	m := new(big.Int).Rand(rng, n)
	for _, e := range []*big.Int{
		big.NewInt(1),
		big.NewInt(2),
		new(big.Int).Lsh(big.NewInt(1), uint(l-1)),
		new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(l)), big.NewInt(1)),
	} {
		want := new(big.Int).Exp(m, e, n)
		got, _ := runExpoNetlist(t, sim, p, ref.Ctx().RR, m, e, n)
		if new(big.Int).Mod(got, n).Cmp(want) != 0 {
			t.Fatalf("e=%s: got %s want %s", e, got, want)
		}
	}
}

// RSA on gates: a complete encrypt/decrypt round trip through the
// gate-level exponentiator (the paper's full system demonstration).
func TestExpoNetlistRSARoundTrip(t *testing.T) {
	// 3233 = 61·53, e = 17, d = 413; l = 12.
	n := big.NewInt(3233)
	ref, err := NewKit(n, kits.Model)
	if err != nil {
		t.Fatal(err)
	}
	l := ref.L
	nl := logic.New()
	p, err := BuildExpoNetlist(nl, l, systolic.Guarded)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := logic.Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	msg := big.NewInt(65)
	c, _ := runExpoNetlist(t, sim, p, ref.Ctx().RR, msg, big.NewInt(17), n)
	c.Mod(c, n)
	back, _ := runExpoNetlist(t, sim, p, ref.Ctx().RR, c, big.NewInt(413), n)
	back.Mod(back, n)
	if back.Cmp(msg) != 0 {
		t.Fatalf("gate-level RSA round trip: %s", back)
	}
}

func TestBuildExpoNetlistValidation(t *testing.T) {
	nl := logic.New()
	if _, err := BuildExpoNetlist(nl, 1, systolic.Guarded); err == nil {
		t.Error("l=1 accepted")
	}
}

package mmmc

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/bits"
	"repro/internal/logic"
	"repro/internal/mont"
	"repro/internal/systolic"
)

func TestCounterWidth(t *testing.T) {
	cases := map[int]int{2: 4, 8: 5, 16: 6, 32: 7, 1024: 12}
	for l, want := range cases {
		if got := CounterWidth(l); got != want {
			t.Errorf("CounterWidth(%d) = %d, want %d", l, got, want)
		}
	}
}

// runNetlist drives a compiled gate-level MMMC through one multiplication
// exactly as an external master would: present operands, raise START for
// one clock, then clock until DONE.
func runNetlist(t *testing.T, sim *logic.Sim, p *NetPorts, x, y, n bits.Vec) (bits.Vec, int) {
	t.Helper()
	l := p.L
	sim.SetMany(p.XBus, x.Resize(l+1))
	sim.SetMany(p.YBus, y.Resize(l+1))
	sim.SetMany(p.NBus, n.Resize(l))
	sim.Set(p.Start, 1)
	sim.Step() // load edge: registers capture, state → MUL1
	sim.Set(p.Start, 0)
	cycles := 0
	for sim.Get(p.Done) == 0 {
		sim.Step()
		cycles++
		if cycles > 4*l+16 {
			t.Fatal("gate-level DONE never asserted")
		}
	}
	return sim.GetVec(p.Result), cycles
}

// The gate-level MMMC must equal the behavioural circuit: same results,
// same cycle count (3l+4), for both variants, across widths.
func TestNetlistMatchesBehavioural(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, variant := range []systolic.Variant{systolic.Faithful, systolic.Guarded} {
		for _, l := range []int{2, 3, 5, 8, 16} {
			nBig := randOdd(rng, l)
			nl := logic.New()
			p, err := BuildNetlist(nl, l, variant)
			if err != nil {
				t.Fatal(err)
			}
			sim, err := logic.Compile(nl)
			if err != nil {
				t.Fatal(err)
			}
			beh, _ := New(l, variant)
			n2 := new(big.Int).Lsh(nBig, 1)
			yBound := n2
			if variant == systolic.Faithful {
				// Stay inside the faithful-safe region so both models
				// compute the true product (they'd also agree outside
				// it, but keep the oracle checkable).
				yBound = new(big.Int).Lsh(big.NewInt(1), uint(l+1))
				yBound = yBound.Sub(yBound, nBig)
				if yBound.Cmp(n2) > 0 {
					yBound = n2
				}
			}
			for trial := 0; trial < 6; trial++ {
				x := new(big.Int).Rand(rng, n2)
				y := new(big.Int).Rand(rng, yBound)
				xv, yv, nv := bits.FromBig(x, l+1), bits.FromBig(y, l+1), bits.FromBig(nBig, l)

				wantRes, wantCycles, err := beh.Run(xv, yv, nv)
				if err != nil {
					t.Fatal(err)
				}
				gotRes, gotCycles := runNetlist(t, sim, p, xv, yv, nv)
				if gotCycles != wantCycles {
					t.Fatalf("variant=%v l=%d: netlist %d cycles, behavioural %d",
						variant, l, gotCycles, wantCycles)
				}
				if !bits.Equal(gotRes, wantRes) {
					t.Fatalf("variant=%v l=%d: netlist %s != behavioural %s",
						variant, l, gotRes.Big(), wantRes.Big())
				}
			}
		}
	}
}

// Gate-level end-to-end against the mont reference, with back-to-back
// restarts on the same netlist instance.
func TestNetlistEndToEndAndRestart(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	l := 16
	nBig := randOdd(rng, l)
	ctx, _ := mont.NewCtx(nBig)
	nl := logic.New()
	p, err := BuildNetlist(nl, l, systolic.Guarded)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := logic.Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		x := new(big.Int).Rand(rng, ctx.N2)
		y := new(big.Int).Rand(rng, ctx.N2)
		got, cycles, errRun := func() (bits.Vec, int, error) {
			r, c := runNetlist(t, sim, p, bits.FromBig(x, l+1), bits.FromBig(y, l+1), bits.FromBig(nBig, l))
			return r, c, nil
		}()
		if errRun != nil {
			t.Fatal(errRun)
		}
		if cycles != 3*l+4 {
			t.Fatalf("cycles = %d", cycles)
		}
		if got.Big().Cmp(ctx.Mul(x, y)) != 0 {
			t.Fatalf("trial %d: gate-level MMMC wrong", trial)
		}
	}
}

// The OUT state must hold DONE and a stable RESULT until the next START.
func TestNetlistOutHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	l := 8
	nBig := randOdd(rng, l)
	nl := logic.New()
	p, _ := BuildNetlist(nl, l, systolic.Guarded)
	sim, _ := logic.Compile(nl)
	x := new(big.Int).Rand(rng, new(big.Int).Lsh(nBig, 1))
	res, _ := runNetlist(t, sim, p, bits.FromBig(x, l+1), bits.FromUint64(5, l+1), bits.FromBig(nBig, l))
	for i := 0; i < 5; i++ {
		sim.Step()
		if sim.Get(p.Done) != 1 {
			t.Fatal("DONE dropped while waiting in OUT")
		}
		if !bits.Equal(sim.GetVec(p.Result), res) {
			t.Fatal("RESULT changed while waiting in OUT")
		}
	}
}

// The controller's control-register complement: 2-bit state register
// plus the cycle counter — linear-logarithmic in l as the paper argues
// (§4.4), in contrast to Blum–Paar's 3·⌈l/u⌉ control bits.
func TestControlBits(t *testing.T) {
	for _, l := range []int{32, 128, 1024} {
		nl := logic.New()
		p, err := BuildNetlist(nl, l, systolic.Guarded)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Counter) != CounterWidth(l) {
			t.Errorf("l=%d: counter has %d bits", l, len(p.Counter))
		}
		// State register: 2 bits.
		if p.StateS0 == p.StateS1 {
			t.Error("state bits aliased")
		}
	}
}

func TestBuildNetlistValidation(t *testing.T) {
	nl := logic.New()
	if _, err := BuildNetlist(nl, 1, systolic.Guarded); err == nil {
		t.Error("l=1 accepted")
	}
}

// The event-driven engine must run the full MMM circuit identically to
// the levelized engine — same RESULT, same DONE timing.
func TestNetlistEventSimEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	l := 12
	nBig := randOdd(rng, l)
	nl := logic.New()
	p, err := BuildNetlist(nl, l, systolic.Guarded)
	if err != nil {
		t.Fatal(err)
	}
	lev, err := logic.Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := logic.NewEventSim(nl)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 4; trial++ {
		x := new(big.Int).Rand(rng, new(big.Int).Lsh(nBig, 1))
		y := new(big.Int).Rand(rng, new(big.Int).Lsh(nBig, 1))
		xv, yv, nv := bits.FromBig(x, l+1), bits.FromBig(y, l+1), bits.FromBig(nBig, l)
		// Drive both in lockstep.
		lev.SetMany(p.XBus, xv)
		ev.SetMany(p.XBus, xv)
		lev.SetMany(p.YBus, yv)
		ev.SetMany(p.YBus, yv)
		lev.SetMany(p.NBus, nv)
		ev.SetMany(p.NBus, nv)
		lev.Set(p.Start, 1)
		ev.Set(p.Start, 1)
		lev.Step()
		ev.Step()
		lev.Set(p.Start, 0)
		ev.Set(p.Start, 0)
		for c := 0; c < 3*l+4; c++ {
			lev.Step()
			ev.Step()
			if lev.Get(p.Done) != ev.Get(p.Done) {
				t.Fatalf("trial %d clock %d: DONE differs", trial, c)
			}
		}
		if !bits.Equal(lev.GetVec(p.Result), ev.GetVec(p.Result)) {
			t.Fatalf("trial %d: engines disagree on RESULT", trial)
		}
	}
}

// Outside the faithful-safe operand region the faithful variant computes
// a WRONG product — and the gate-level netlist must be wrong in exactly
// the same way (bit-exact bug equivalence between behavioural and gate
// models). This pins down that the hazard is a property of the paper's
// design, not of either simulation engine.
func TestNetlistFaithfulHazardBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	l := 8
	// All-ones modulus maximizes the hazard rate.
	nBig := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(l)), big.NewInt(1))
	ctx, _ := mont.NewCtx(nBig)

	nl := logic.New()
	p, err := BuildNetlist(nl, l, systolic.Faithful)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := logic.Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	beh, _ := New(l, systolic.Faithful)

	sawWrong := false
	for trial := 0; trial < 300 && !sawWrong; trial++ {
		x := new(big.Int).Rand(rng, ctx.N2)
		y := new(big.Int).Rand(rng, ctx.N2)
		xv, yv, nv := bits.FromBig(x, l+1), bits.FromBig(y, l+1), bits.FromBig(nBig, l)
		want, _, err := beh.Run(xv, yv, nv)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := runNetlist(t, sim, p, xv, yv, nv)
		if !bits.Equal(got, want) {
			t.Fatalf("behavioural and gate-level faithful models diverge")
		}
		if want.Big().Cmp(ctx.Mul(x, y)) != 0 {
			sawWrong = true // both wrong, identically — the paper's bug
		}
	}
	if !sawWrong {
		t.Error("expected at least one hazard-corrupted product at N = 2^l - 1")
	}
}

// Exhaustive gate-level check at the widths a scalar simulator affords:
// for the Guarded variant, every odd l-bit modulus N with its top bit set
// and every x, y in [0, 2N), the netlist's RESULT must equal the
// behavioural model's bit for bit, and DONE must rise exactly 3l+4 clock
// edges after the load edge. l = 2…5 always, l = 6 unless -short. Each
// modulus is a parallel subtest with its own simulator and model.
func TestNetlistExhaustiveSmallL(t *testing.T) {
	maxL := 6
	if testing.Short() {
		maxL = 5
	}
	for l := 2; l <= maxL; l++ {
		nl := logic.New()
		p, err := BuildNetlist(nl, l, systolic.Guarded)
		if err != nil {
			t.Fatal(err)
		}
		for n := uint64(1)<<(l-1) | 1; n < 1<<l; n += 2 {
			t.Run(fmt.Sprintf("l=%d,N=%d", l, n), func(t *testing.T) {
				t.Parallel()
				exhaustModulus(t, nl, p, n)
			})
		}
	}
}

// exhaustModulus runs every product x·y with x, y in [0, 2N) on a fresh
// simulator of nl and checks it against the behavioural model.
func exhaustModulus(t *testing.T, nl *logic.Netlist, p *NetPorts, n uint64) {
	l := p.L
	sim, err := logic.Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	beh, err := New(l, systolic.Guarded)
	if err != nil {
		t.Fatal(err)
	}
	nv := bits.FromUint64(n, l)
	sim.SetMany(p.NBus, nv)
	for x := uint64(0); x < 2*n; x++ {
		xv := bits.FromUint64(x, l+1)
		sim.SetMany(p.XBus, xv)
		for y := uint64(0); y < 2*n; y++ {
			yv := bits.FromUint64(y, l+1)
			want, _, err := beh.Run(xv, yv, nv)
			if err != nil {
				t.Fatal(err)
			}
			sim.SetMany(p.YBus, yv)
			sim.Set(p.Start, 1)
			sim.Step()
			sim.Set(p.Start, 0)
			for c := 1; c <= 3*l+4; c++ {
				sim.Step()
				if done := sim.Get(p.Done) == 1; done != (c == 3*l+4) {
					t.Fatalf("x=%d y=%d: DONE=%v after %d clock edges, want it to rise after exactly 3l+4 = %d",
						x, y, done, c, 3*l+4)
				}
			}
			if got := sim.GetVec(p.Result); !bits.Equal(got, want) {
				t.Fatalf("x=%d y=%d: netlist RESULT %d, behavioural %d", x, y, got.Uint64(), want.Uint64())
			}
		}
	}
}

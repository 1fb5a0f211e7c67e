package logic

import (
	"math/rand"
	"testing"

	"repro/internal/bits"
)

// randomNetlist builds a random DAG of gates and flip-flops for
// differential testing between the two engines.
func randomNetlist(rng *rand.Rand, nInputs, nGates, nFFs int) (*Netlist, []Signal, []Signal) {
	n := New()
	pool := []Signal{Const0, Const1}
	ins := n.InputVec("in", nInputs)
	pool = append(pool, ins...)

	// Flip-flops first (feedback allowed: their D binds later). Each
	// one's clock enable and clear are the constants (always load, never
	// clear) or random existing nets, and sometimes the previous
	// flip-flop's, so both engines hold, clear and load, alone and in
	// groups sharing their control nets.
	ffQ := make([]Signal, nFFs)
	ffSet := make([]func(Signal), nFFs)
	ce, clr := Const1, Const0
	for i := 0; i < nFFs; i++ {
		if i == 0 || rng.Intn(3) > 0 {
			ce, clr = Const1, Const0
			if rng.Intn(2) == 0 {
				ce = pool[rng.Intn(len(pool))]
			}
			if rng.Intn(2) == 0 {
				clr = pool[rng.Intn(len(pool))]
			}
		}
		d := n.BufGate(Const0)
		gi := n.NumGates() - 1
		ffQ[i] = n.AddDFFFull(d, ce, clr, bits.Bit(rng.Intn(2)), "")
		ffSet[i] = func(s Signal) { n.PatchGateInput(gi, s) }
		pool = append(pool, ffQ[i])
	}
	for i := 0; i < nGates; i++ {
		a := pool[rng.Intn(len(pool))]
		b := pool[rng.Intn(len(pool))]
		var out Signal
		switch rng.Intn(5) {
		case 0:
			out = n.AndGate(a, b)
		case 1:
			out = n.OrGate(a, b)
		case 2:
			out = n.XorGate(a, b)
		case 3:
			out = n.NotGate(a)
		default:
			out = n.BufGate(a)
		}
		pool = append(pool, out)
	}
	for i := 0; i < nFFs; i++ {
		ffSet[i](pool[rng.Intn(len(pool))])
	}
	// Observe a sample of nets.
	var watch []Signal
	for i := 0; i < 16; i++ {
		watch = append(watch, pool[rng.Intn(len(pool))])
	}
	watch = append(watch, ffQ...)
	return n, ins, watch
}

// Differential test: the event-driven engine must match the levelized
// engine net-for-net over random circuits and random stimulus.
func TestEventSimMatchesLevelized(t *testing.T) {
	rng := rand.New(rand.NewSource(231))
	for trial := 0; trial < 20; trial++ {
		n, ins, watch := randomNetlist(rng, 6, 60, 10)
		lev, err := Compile(n)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := NewEventSim(n)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 50; step++ {
			vec := make(bits.Vec, len(ins))
			for i := range vec {
				vec[i] = bits.Bit(rng.Intn(2))
			}
			lev.SetMany(ins, vec)
			ev.SetMany(ins, vec)
			for _, s := range watch {
				if lev.Get(s) != ev.Get(s) {
					t.Fatalf("trial %d step %d: net %d differs (lev=%d ev=%d)",
						trial, step, s, lev.Get(s), ev.Get(s))
				}
			}
			lev.Step()
			ev.Step()
		}
		if lev.Cycle() != ev.Cycle() {
			t.Fatal("cycle counters diverged")
		}
	}
}

func TestEventSimResetAndValidation(t *testing.T) {
	n := New()
	a := n.Input("a")
	q := n.AddDFF(a, 1, "q")
	ev, err := NewEventSim(n)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Get(q) != 1 {
		t.Fatal("init value wrong")
	}
	ev.Set(a, 1)
	ev.Step()
	if ev.Get(q) != 1 {
		t.Fatal("capture wrong")
	}
	ev.Set(a, 0)
	ev.Step()
	if ev.Get(q) != 0 {
		t.Fatal("capture wrong after change")
	}
	ev.Reset()
	if ev.Get(q) != 1 || ev.Cycle() != 0 {
		t.Fatal("Reset incomplete")
	}
	if got := ev.GetVec([]Signal{a, q}); got.Uint64() != 0b10 {
		t.Fatalf("GetVec = %v", got)
	}
	for name, f := range map[string]func(){
		"Set invalid":     func() { ev.Set(a, 2) },
		"SetMany lengths": func() { ev.SetMany([]Signal{a}, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestEventSimRejectsLoops(t *testing.T) {
	n := New()
	a := n.Input("a")
	x1 := n.AndGate(a, a)
	n.PatchGateInput(0, x1)
	if _, err := NewEventSim(n); err == nil {
		t.Error("combinational loop accepted")
	}
}

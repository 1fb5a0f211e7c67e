package logic

import (
	"math/rand"
	"testing"

	"repro/internal/bits"
)

// refSim is the reference evaluator for Sim's force path: the plain
// interpreter Sim replaced. Nets are indexed by Signal, every settle
// walks the topological order gate by gate, and a stuck-at override is
// a map entry that is written before the walk and skips its driving gate.
type refSim struct {
	n     *Netlist
	order []int
	vals  []bits.Bit
	force map[Signal]bits.Bit
}

func newRefSim(t *testing.T, n *Netlist) *refSim {
	t.Helper()
	order, err := levelize(n)
	if err != nil {
		t.Fatal(err)
	}
	r := &refSim{n: n, order: order, vals: make([]bits.Bit, n.numSignals), force: map[Signal]bits.Bit{}}
	r.Reset()
	return r
}

func (r *refSim) Reset() {
	clear(r.vals)
	r.vals[Const1] = 1
	for _, ff := range r.n.dffs {
		r.vals[ff.Q] = ff.Init
	}
	r.settle()
}

func (r *refSim) SetMany(ins []Signal, vs []bits.Bit) {
	for i, in := range ins {
		r.vals[in] = vs[i]
	}
	r.settle()
}

func (r *refSim) Step() {
	next := make([]bits.Bit, len(r.n.dffs))
	for i, ff := range r.n.dffs {
		switch {
		case r.vals[ff.CLR] == 1:
			next[i] = ff.Init
		case r.vals[ff.CE] == 1:
			next[i] = r.vals[ff.D]
		default:
			next[i] = r.vals[ff.Q]
		}
	}
	for i, ff := range r.n.dffs {
		r.vals[ff.Q] = next[i]
	}
	r.settle()
}

func (r *refSim) Force(sig Signal, v bits.Bit) { r.force[sig] = v; r.settle() }
func (r *refSim) Unforce(sig Signal)           { delete(r.force, sig); r.settle() }
func (r *refSim) ClearForces()                 { clear(r.force); r.settle() }

func (r *refSim) settle() {
	for sig, v := range r.force {
		r.vals[sig] = v
	}
	for _, gi := range r.order {
		g := &r.n.gates[gi]
		if _, forced := r.force[g.Out]; forced {
			continue
		}
		a := r.vals[g.A]
		switch g.Kind {
		case And:
			r.vals[g.Out] = a & r.vals[g.B]
		case Or:
			r.vals[g.Out] = a | r.vals[g.B]
		case Xor:
			r.vals[g.Out] = a ^ r.vals[g.B]
		case Not:
			r.vals[g.Out] = a ^ 1
		case Buf:
			r.vals[g.Out] = a
		}
	}
}

// Differential test of the force path: on random circuits under random
// stimulus, random stuck-at overrides on gate outputs, flip-flop outputs
// and primary inputs — added, replaced, removed one at a time and
// cleared wholesale mid-run — must leave Sim matching the reference on
// every watched net after every settle and every clock edge.
func TestForcedSimMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(232))
	for trial := 0; trial < 30; trial++ {
		n, ins, watch := randomNetlist(rng, 6, 60, 10)
		sim, err := Compile(n)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefSim(t, n)

		sites := append([]Signal(nil), ins...)
		for _, g := range n.gates {
			sites = append(sites, g.Out)
		}
		for _, ff := range n.dffs {
			sites = append(sites, ff.Q)
		}
		watch = append(watch, sites...)

		check := func(step int, what string) {
			t.Helper()
			for _, s := range watch {
				if got, want := sim.Get(s), ref.vals[s]; got != want {
					t.Fatalf("trial %d step %d after %s: net %d = %d, reference %d",
						trial, step, what, s, got, want)
				}
			}
		}
		for step := 0; step < 60; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				site, v := sites[rng.Intn(len(sites))], bits.Bit(rng.Intn(2))
				sim.Force(site, v)
				ref.Force(site, v)
				check(step, "Force")
			case op < 6:
				site := sites[rng.Intn(len(sites))]
				sim.Unforce(site)
				ref.Unforce(site)
				check(step, "Unforce")
			case op == 6:
				sim.ClearForces()
				ref.ClearForces()
				check(step, "ClearForces")
			case op == 7 && step%5 == 0:
				sim.Reset()
				ref.Reset()
				check(step, "Reset")
			}
			vec := make(bits.Vec, len(ins))
			for i := range vec {
				vec[i] = bits.Bit(rng.Intn(2))
			}
			sim.SetMany(ins, vec)
			ref.SetMany(ins, vec)
			check(step, "SetMany")
			sim.Step()
			ref.Step()
			check(step, "Step")
		}
	}
}

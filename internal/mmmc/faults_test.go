package mmmc

import (
	"math/big"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/bits"
	"repro/internal/logic"
	"repro/internal/systolic"
)

// Failure injection on the real design: inject every single stuck-at
// fault into the gate-level MMMC and grade a functional test of a few
// multiplications. Almost all datapath defects must corrupt RESULT or
// DONE — the quantified version of "ordinary operation propagates cell
// faults to the outputs". The threshold is deliberately below 100%:
// genuinely untestable sites exist (e.g. X-register high bits that this
// operand set never exercises, token positions masked by equal values).
func TestMMMCFaultCampaign(t *testing.T) {
	const l = 4
	rng := rand.New(rand.NewSource(171))
	nBig := randOdd(rng, l)

	nl := logic.New()
	p, err := BuildNetlist(nl, l, systolic.Guarded)
	if err != nil {
		t.Fatal(err)
	}

	// Three fixed multiplications with varied operands as the test set.
	type vec struct{ x, y *big.Int }
	n2 := new(big.Int).Lsh(nBig, 1)
	var tests []vec
	for i := 0; i < 3; i++ {
		tests = append(tests, vec{
			x: new(big.Int).Rand(rng, n2),
			y: new(big.Int).Rand(rng, n2),
		})
	}

	driver := func(s *logic.Sim) []bits.Vec {
		var obs []bits.Vec
		for _, tv := range tests {
			s.SetMany(p.XBus, bits.FromBig(tv.x, l+1))
			s.SetMany(p.YBus, bits.FromBig(tv.y, l+1))
			s.SetMany(p.NBus, bits.FromBig(nBig, l))
			s.Set(p.Start, 1)
			s.Step()
			s.Set(p.Start, 0)
			for c := 0; c < 3*l+4; c++ {
				s.Step()
			}
			sig := append(s.GetVec(p.Result), s.Get(p.Done))
			obs = append(obs, sig)
		}
		return obs
	}

	faults := logic.AllStuckAtFaults(nl)
	rep, err := logic.RunFaultCampaign(nl, faults, driver)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("MMMC l=%d fault campaign: %s", l, rep)
	if rep.Coverage() < 0.80 {
		t.Errorf("fault coverage %.1f%% below 80%% — functional test too weak",
			100*rep.Coverage())
	}
	// The campaign must include a healthy fault population.
	if rep.Total < 400 {
		t.Errorf("only %d fault sites enumerated", rep.Total)
	}
	// The exact grade is pinned, so a change to the simulator's force
	// path cannot move it silently. big.Int.Rand draws whole machine
	// words, so the operands, and with them the grade, depend on the word
	// size.
	want := 382
	if strconv.IntSize == 32 {
		want = 375
	}
	if rep.Detected != want || rep.Total != 452 {
		t.Errorf("campaign detected %d/%d faults, want exactly %d/452", rep.Detected, rep.Total, want)
	}
}

package logic

import (
	"fmt"
	"slices"

	"repro/internal/bits"
)

// Stuck-at fault simulation: the classic manufacturing-test model. A
// fault pins one net to a constant; a test set detects it when any
// observed output differs from the fault-free run. The reproduction uses
// this the way a hardware team would have on the paper's FPGA design —
// to grade test vectors for the systolic array and to demonstrate that
// ordinary multiplications propagate almost every cell defect to the
// RESULT bus (failure-injection testing).

// Fault is a single stuck-at fault site.
type Fault struct {
	Net     Signal
	StuckAt bits.Bit
}

// String renders the fault conventionally.
func (f Fault) String() string { return fmt.Sprintf("net %d stuck-at-%d", f.Net, f.StuckAt) }

// AllStuckAtFaults enumerates the full single-stuck-at fault list: every
// gate output and every flip-flop output, at 0 and at 1. (Primary inputs
// are excluded — they are the tester's own pins.)
func AllStuckAtFaults(n *Netlist) []Fault {
	var faults []Fault
	add := func(s Signal) {
		faults = append(faults, Fault{s, 0}, Fault{s, 1})
	}
	for _, g := range n.gates {
		add(g.Out)
	}
	for _, ff := range n.dffs {
		add(ff.Q)
	}
	return faults
}

// Force pins a net to a constant until Unforce: the simulator applies
// the override within every settle pass, as soon as the net's own value
// is computed, and re-applies it after every clock edge, so all fanout
// sees the faulty value. Forcing Const0/Const1 is rejected.
func (s *Sim) Force(sig Signal, v bits.Bit) {
	if v > 1 {
		panic(fmt.Sprintf("logic: invalid forced value %d", v))
	}
	s.n.checkSignal(sig)
	if sig == Const0 || sig == Const1 {
		panic("logic: cannot force a constant net")
	}
	f := forcedSlot{slot: s.slot[sig], v: v}
	if i, ok := s.findForce(f.slot); ok {
		s.forced[i] = f
	} else {
		s.forced = slices.Insert(s.forced, i, f)
	}
	s.settle()
}

// Unforce removes a pin override.
func (s *Sim) Unforce(sig Signal) {
	s.n.checkSignal(sig)
	if i, ok := s.findForce(s.slot[sig]); ok {
		s.forced = slices.Delete(s.forced, i, i+1)
	}
	s.settle()
}

// ClearForces removes all overrides.
func (s *Sim) ClearForces() {
	s.forced = s.forced[:0]
	s.settle()
}

// findForce returns where slot's override is, or would go, in s.forced.
func (s *Sim) findForce(slot int32) (int, bool) {
	return slices.BinarySearchFunc(s.forced, slot, func(f forcedSlot, slot int32) int {
		return int(f.slot) - int(slot)
	})
}

// FaultReport summarizes a fault campaign.
type FaultReport struct {
	Total      int
	Detected   int
	Undetected []Fault
}

// Coverage returns the detected fraction (1.0 when Total is 0).
func (r FaultReport) Coverage() float64 {
	if r.Total == 0 {
		return 1
	}
	return float64(r.Detected) / float64(r.Total)
}

// String renders the summary.
func (r FaultReport) String() string {
	return fmt.Sprintf("%d/%d faults detected (%.1f%% coverage)",
		r.Detected, r.Total, 100*r.Coverage())
}

// RunFaultCampaign grades a test driver against a fault list. driver
// must reset-drive the simulator deterministically and return the
// observed responses (any per-run signature — typically sampled outputs
// per cycle). The fault-free signature is collected first; each fault is
// then injected and the signatures compared.
func RunFaultCampaign(n *Netlist, faults []Fault, driver func(s *Sim) []bits.Vec) (FaultReport, error) {
	sim, err := Compile(n)
	if err != nil {
		return FaultReport{}, err
	}
	golden := driver(sim)

	rep := FaultReport{Total: len(faults)}
	for _, f := range faults {
		sim.Reset()
		sim.ClearForces()
		sim.Force(f.Net, f.StuckAt)
		got := driver(sim)
		if signaturesDiffer(golden, got) {
			rep.Detected++
		} else {
			rep.Undetected = append(rep.Undetected, f)
		}
	}
	return rep, nil
}

func signaturesDiffer(a, b []bits.Vec) bool {
	if len(a) != len(b) {
		return true
	}
	for i := range a {
		if !bits.Equal(a[i], b[i]) {
			return true
		}
	}
	return false
}

package logic

import (
	"fmt"

	"repro/internal/bits"
)

// EventSim is an event-driven simulator for the same netlists Sim
// executes: instead of re-evaluating every gate each settle pass, it
// propagates only from nets whose values changed, the way production
// logic simulators work. On circuits with sparse switching activity
// (a systolic array mid-drain, an idle controller) this touches a small
// fraction of the gates per cycle.
//
// EventSim is behaviourally identical to Sim — the equivalence is
// property-tested on random netlists and on the full MMM circuit — and
// exists both as a faster engine for long simulations and as a
// cross-check that the levelized engine's semantics are right.
type EventSim struct {
	n      *Netlist
	vals   []bits.Bit
	level  []int32   // topological level per gate (for ordered processing)
	fanout [][]int32 // net -> consuming gate indices
	ffNext []bits.Bit
	cycle  int

	// event queue: gates pending evaluation, bucketed by level, with a
	// membership flag to deduplicate scheduling.
	pending  [][]int32
	inQueue  []bool
	maxLevel int32
}

// NewEventSim compiles a netlist for event-driven execution.
func NewEventSim(n *Netlist) (*EventSim, error) {
	order, err := levelize(n)
	if err != nil {
		return nil, err
	}
	level, maxLevel := gateLevels(n, order)
	s := &EventSim{
		n:        n,
		vals:     make([]bits.Bit, n.numSignals),
		level:    level,
		maxLevel: maxLevel,
		fanout:   make([][]int32, n.numSignals),
		ffNext:   make([]bits.Bit, len(n.dffs)),
	}
	for gi, g := range n.gates {
		for _, in := range gateInputs(g) {
			s.fanout[in] = append(s.fanout[in], int32(gi))
		}
	}
	s.pending = make([][]int32, s.maxLevel+1)
	s.inQueue = make([]bool, len(n.gates))
	s.Reset()
	return s, nil
}

// Reset restores initial state (DFF init values, inputs low) and settles.
func (s *EventSim) Reset() {
	for i := range s.vals {
		s.vals[i] = 0
	}
	s.vals[Const1] = 1
	for _, ff := range s.n.dffs {
		s.vals[ff.Q] = ff.Init
	}
	s.cycle = 0
	// Full initial settle: schedule every gate once.
	for gi := range s.n.gates {
		if !s.inQueue[gi] {
			s.inQueue[gi] = true
			s.pending[s.level[gi]] = append(s.pending[s.level[gi]], int32(gi))
		}
	}
	s.drain()
}

// Cycle returns the clock edges since Reset.
func (s *EventSim) Cycle() int { return s.cycle }

// Get reads a settled net value.
func (s *EventSim) Get(sig Signal) bits.Bit {
	s.n.checkSignal(sig)
	return s.vals[sig]
}

// GetVec reads a vector of nets LSB-first.
func (s *EventSim) GetVec(sigs []Signal) bits.Vec {
	v := make(bits.Vec, len(sigs))
	for i, sig := range sigs {
		v[i] = s.Get(sig)
	}
	return v
}

// Set drives an input and propagates the change.
func (s *EventSim) Set(in Signal, v bits.Bit) {
	if v > 1 {
		panic(fmt.Sprintf("logic: invalid input value %d", v))
	}
	s.n.checkSignal(in)
	if s.vals[in] == v {
		return
	}
	s.vals[in] = v
	s.touch(in)
	s.drain()
}

// SetMany drives several inputs with one propagation pass.
func (s *EventSim) SetMany(ins []Signal, vs []bits.Bit) {
	if len(ins) != len(vs) {
		panic("logic: SetMany length mismatch")
	}
	any := false
	for i, in := range ins {
		if vs[i] > 1 {
			panic(fmt.Sprintf("logic: invalid input value %d", vs[i]))
		}
		s.n.checkSignal(in)
		if s.vals[in] != vs[i] {
			s.vals[in] = vs[i]
			s.touch(in)
			any = true
		}
	}
	if any {
		s.drain()
	}
}

// Step advances one clock edge: capture all DFF inputs, commit, then
// propagate only from flip-flops whose outputs actually changed.
func (s *EventSim) Step() {
	for i, ff := range s.n.dffs {
		switch {
		case s.vals[ff.CLR] == 1:
			s.ffNext[i] = ff.Init
		case s.vals[ff.CE] == 1:
			s.ffNext[i] = s.vals[ff.D]
		default:
			s.ffNext[i] = s.vals[ff.Q]
		}
	}
	any := false
	for i, ff := range s.n.dffs {
		if s.vals[ff.Q] != s.ffNext[i] {
			s.vals[ff.Q] = s.ffNext[i]
			s.touch(ff.Q)
			any = true
		}
	}
	s.cycle++
	if any {
		s.drain()
	}
}

// touch schedules every consumer of a changed net.
func (s *EventSim) touch(sig Signal) {
	for _, gi := range s.fanout[sig] {
		if !s.inQueue[gi] {
			s.inQueue[gi] = true
			s.pending[s.level[gi]] = append(s.pending[s.level[gi]], gi)
		}
	}
}

// drain processes pending gates level by level; gates whose output does
// not change schedule nothing further. Scheduling only ever targets
// levels at or above the one being drained (fanout goes forward), so a
// single sweep suffices.
func (s *EventSim) drain() {
	for lv := int32(0); lv <= s.maxLevel; lv++ {
		bucket := s.pending[lv]
		if len(bucket) == 0 {
			continue
		}
		s.pending[lv] = bucket[:0]
		for _, gi := range bucket {
			s.inQueue[gi] = false
			g := &s.n.gates[gi]
			a := s.vals[g.A]
			var out bits.Bit
			switch g.Kind {
			case And:
				out = a & s.vals[g.B]
			case Or:
				out = a | s.vals[g.B]
			case Xor:
				out = a ^ s.vals[g.B]
			case Not:
				out = a ^ 1
			case Buf:
				out = a
			}
			if out != s.vals[g.Out] {
				s.vals[g.Out] = out
				s.touch(g.Out)
			}
		}
	}
}

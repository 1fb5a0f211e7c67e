package logic

import (
	"errors"
	"fmt"

	"repro/internal/bits"
)

// Sim executes a compiled netlist cycle by cycle. Compile turns the
// netlist into a flat schedule: each gate gets its longest-path level,
// and the gates are grouped by (level, kind) into runs, each of which
// evaluates one gate kind over a contiguous block of nets with no
// per-gate branch. A settle pass executes the runs in order, so every
// combinational net settles between clock edges; Step then commits every
// flip-flop simultaneously, modelling a single global clock edge.
//
// Nets live in slots rather than at their Signal index: the constants
// and primary inputs first, then every flip-flop's Q contiguously, then
// the gate outputs in schedule order. A run thus writes one contiguous
// slice of slots. The clock edge decides clear, load or hold once per
// group of consecutively declared flip-flops sharing their CE and CLR
// nets, captures into scratch, and commits with one copy into the Q
// slots. Set, SetMany, Get, GetVec and Force translate through the slot
// table.
//
// Faulted and fault-free runs share the one settle loop: stuck-at
// overrides (see Force) are kept sorted by slot, input and Q overrides
// are applied before the first run, and each gate-output override right
// after the run that computes the gate. Gates of one level never read
// each other, so every reader sees the forced value.
type Sim struct {
	n    *Netlist
	slot []int32 // Signal -> index into vals
	vals []bits.Bit

	// The schedule: gate k reads vals[a[k]] (and vals[b[k]] unless it is
	// a NOT or BUF) and writes vals[gateBase+k]; runs partition the gates.
	runs     []run
	a, b     []int32
	gateBase int32

	// Flip-flop i's Q is vals[qBase+i]; it captures vals[ffD[i]], or
	// ffInit[i] when its group's CLR is high.
	qBase    int32
	ffGroups []ffGroup
	ffD      []int32
	ffInit   []bits.Bit
	ffNext   []bits.Bit // scratch for the two-phase DFF commit
	cycle    int

	// forced holds the stuck-at overrides (see Force in faults.go),
	// sorted by slot.
	forced []forcedSlot
}

// run is one (level, kind) bucket of the schedule: gates lo..hi-1.
type run struct {
	kind   GateKind
	lo, hi int32
}

// ffGroup is a block of consecutively declared flip-flops lo..hi-1 that
// share their CE and CLR nets (at slots ce and clr), so the clock edge
// decides clear, load or hold once per group.
type ffGroup struct {
	ce, clr, lo, hi int32
}

// forcedSlot pins vals[slot] to v.
type forcedSlot struct {
	slot int32
	v    bits.Bit
}

// ErrCombinationalLoop is returned by Compile when the gate graph is
// cyclic without an intervening flip-flop.
var ErrCombinationalLoop = errors.New("logic: combinational loop")

// Compile levelizes the netlist into a kind-grouped schedule and returns
// a simulator with all flip-flops in their reset state and all inputs
// low.
func Compile(n *Netlist) (*Sim, error) {
	order, err := levelize(n)
	if err != nil {
		return nil, err
	}
	level, maxLevel := gateLevels(n, order)

	nIn, nFF, nG := int32(len(n.inputs)), int32(len(n.dffs)), len(n.gates)
	s := &Sim{
		n:        n,
		slot:     make([]int32, n.numSignals),
		vals:     make([]bits.Bit, n.numSignals),
		a:        make([]int32, nG),
		b:        make([]int32, nG),
		gateBase: 2 + nIn + nFF,
		qBase:    2 + nIn,
		ffD:      make([]int32, nFF),
		ffInit:   make([]bits.Bit, nFF),
		ffNext:   make([]bits.Bit, nFF),
	}
	s.slot[Const1] = 1
	for i, in := range n.inputs {
		s.slot[in] = 2 + int32(i)
	}
	for i, ff := range n.dffs {
		s.slot[ff.Q] = s.qBase + int32(i)
	}

	// Counting sort of the gates by (level, kind): next[key] is where the
	// next gate of bucket key goes, and each non-empty bucket is a run.
	const kinds = int(numGateKinds)
	next := make([]int32, (int(maxLevel)+1)*kinds)
	for gi, g := range n.gates {
		next[int(level[gi])*kinds+int(g.Kind)]++
	}
	pos := int32(0)
	for key, cnt := range next {
		if cnt > 0 {
			s.runs = append(s.runs, run{kind: GateKind(key % kinds), lo: pos, hi: pos + cnt})
		}
		next[key] = pos
		pos += cnt
	}
	for gi, g := range n.gates {
		key := int(level[gi])*kinds + int(g.Kind)
		s.slot[g.Out] = s.gateBase + next[key]
		next[key]++
	}
	for _, g := range n.gates {
		k := s.slot[g.Out] - s.gateBase
		s.a[k], s.b[k] = s.slot[g.A], s.slot[g.B]
	}

	for i, ff := range n.dffs {
		s.ffD[i], s.ffInit[i] = s.slot[ff.D], ff.Init
		ce, clr := s.slot[ff.CE], s.slot[ff.CLR]
		if k := len(s.ffGroups) - 1; k >= 0 && s.ffGroups[k].ce == ce && s.ffGroups[k].clr == clr {
			s.ffGroups[k].hi++
		} else {
			s.ffGroups = append(s.ffGroups, ffGroup{ce: ce, clr: clr, lo: int32(i), hi: int32(i) + 1})
		}
	}
	s.Reset()
	return s, nil
}

// TopoGates returns gate indices in dependency order — the same
// levelization Compile uses. Exported for analysis passes (technology
// mapping, timing) that walk the combinational graph.
func TopoGates(n *Netlist) ([]int, error) { return levelize(n) }

// GateInputs returns the input nets a gate actually reads (one for
// Not/Buf, two otherwise).
func GateInputs(g Gate) []Signal { return gateInputs(g) }

// levelize returns gate indices in dependency order. DFF Q outputs and
// primary inputs are sources; an edge runs from each gate input net to
// the gate. Kahn's algorithm; leftover gates indicate a loop.
func levelize(n *Netlist) ([]int, error) {
	// driverGate[s] = index of the gate driving net s, or -1.
	driverGate := make([]int32, n.numSignals)
	for i := range driverGate {
		driverGate[i] = -1
	}
	for gi, g := range n.gates {
		if driverGate[g.Out] != -1 {
			return nil, fmt.Errorf("logic: net %s has multiple drivers", n.NameOf(g.Out))
		}
		driverGate[g.Out] = int32(gi)
	}
	for _, ff := range n.dffs {
		if driverGate[ff.Q] != -1 {
			return nil, fmt.Errorf("logic: net %s driven by both gate and DFF", n.NameOf(ff.Q))
		}
	}

	// The gates reading gate d's output are dependents[first[d]:first[d+1]],
	// in gate order.
	indeg := make([]int32, len(n.gates))
	first := make([]int32, len(n.gates)+1)
	forEachDriver := func(visit func(gi int, d int32)) {
		for gi, g := range n.gates {
			if d := driverGate[g.A]; d != -1 {
				visit(gi, d)
			}
			if d := driverGate[g.B]; d != -1 && g.Kind != Not && g.Kind != Buf {
				visit(gi, d)
			}
		}
	}
	forEachDriver(func(gi int, d int32) {
		indeg[gi]++
		first[d+1]++
	})
	for d := range indeg {
		first[d+1] += first[d]
	}
	dependents := make([]int32, first[len(indeg)])
	fill := append([]int32(nil), first[:len(indeg)]...)
	forEachDriver(func(gi int, d int32) {
		dependents[fill[d]] = int32(gi)
		fill[d]++
	})

	// order doubles as Kahn's FIFO queue: gates are appended when their
	// last input is ready and popped at head.
	order := make([]int, 0, len(n.gates))
	for gi, d := range indeg {
		if d == 0 {
			order = append(order, gi)
		}
	}
	for head := 0; head < len(order); head++ {
		gi := order[head]
		for _, dep := range dependents[first[gi]:first[gi+1]] {
			indeg[dep]--
			if indeg[dep] == 0 {
				order = append(order, int(dep))
			}
		}
	}
	if len(order) != len(n.gates) {
		return nil, ErrCombinationalLoop
	}
	return order, nil
}

// gateLevels returns each gate's longest-path level given a
// topological order, and the deepest level. Constants, primary inputs
// and flip-flop outputs are level-0 nets, and a gate at level lv drives a
// level-(lv+1) net, so a gate only reads nets driven at lower levels:
// gates of one level never read each other.
func gateLevels(n *Netlist, order []int) (level []int32, maxLevel int32) {
	netLevel := make([]int32, n.numSignals)
	level = make([]int32, len(n.gates))
	for _, gi := range order {
		g := &n.gates[gi]
		lv := netLevel[g.A]
		if g.Kind != Not && g.Kind != Buf && netLevel[g.B] > lv {
			lv = netLevel[g.B]
		}
		level[gi] = lv
		netLevel[g.Out] = lv + 1
		if lv > maxLevel {
			maxLevel = lv
		}
	}
	return level, maxLevel
}

func gateInputs(g Gate) []Signal {
	if g.Kind == Not || g.Kind == Buf {
		return []Signal{g.A}
	}
	return []Signal{g.A, g.B}
}

// Reset returns every flip-flop to its init value, zeroes the inputs and
// re-settles the combinational logic. The cycle counter restarts at 0.
func (s *Sim) Reset() {
	clear(s.vals)
	s.vals[s.slot[Const1]] = 1
	copy(s.vals[s.qBase:s.gateBase], s.ffInit)
	s.cycle = 0
	s.settle()
}

// Cycle returns the number of clock edges since Reset.
func (s *Sim) Cycle() int { return s.cycle }

// Set drives a primary input net and re-settles the combinational logic.
func (s *Sim) Set(in Signal, v bits.Bit) {
	if v > 1 {
		panic(fmt.Sprintf("logic: invalid input value %d", v))
	}
	s.n.checkSignal(in)
	s.vals[s.slot[in]] = v
	s.settle()
}

// SetMany drives several inputs at once with a single settle pass.
func (s *Sim) SetMany(ins []Signal, vs []bits.Bit) {
	if len(ins) != len(vs) {
		panic("logic: SetMany length mismatch")
	}
	for i, in := range ins {
		if vs[i] > 1 {
			panic(fmt.Sprintf("logic: invalid input value %d", vs[i]))
		}
		s.n.checkSignal(in)
		s.vals[s.slot[in]] = vs[i]
	}
	s.settle()
}

// Get reads the settled value of any net.
func (s *Sim) Get(sig Signal) bits.Bit {
	s.n.checkSignal(sig)
	return s.vals[s.slot[sig]]
}

// GetVec reads a vector of nets LSB-first.
func (s *Sim) GetVec(sigs []Signal) bits.Vec {
	v := make(bits.Vec, len(sigs))
	for i, sig := range sigs {
		v[i] = s.Get(sig)
	}
	return v
}

// Step advances one clock edge: flip-flops capture their (already
// settled) D inputs simultaneously, then combinational logic re-settles.
func (s *Sim) Step() {
	// Capture first, commit second: D, CE and CLR values must be
	// pre-edge. CLR wins over CE; CE low holds.
	vals, q, next := s.vals, s.vals[s.qBase:s.gateBase], s.ffNext
	for _, g := range s.ffGroups {
		nx := next[g.lo:g.hi]
		switch {
		case vals[g.clr] == 1:
			copy(nx, s.ffInit[g.lo:g.hi])
		case vals[g.ce] == 1:
			d := s.ffD[g.lo:g.hi]
			d = d[:len(nx)]
			for i := range nx {
				nx[i] = vals[d[i]]
			}
		default:
			copy(nx, q[g.lo:g.hi])
		}
	}
	copy(q, next)
	s.cycle++
	s.settle()
}

// settle executes the schedule once, applying every stuck-at override as
// soon as its net's value is final: input and Q overrides before the
// first run, a gate-output override right after the run that computes
// it.
func (s *Sim) settle() {
	vals, f := s.vals, s.forced
	for len(f) > 0 && f[0].slot < s.gateBase {
		vals[f[0].slot] = f[0].v
		f = f[1:]
	}
	gates := vals[s.gateBase:]
	for _, r := range s.runs {
		out := gates[r.lo:r.hi]
		a := s.a[r.lo:r.hi]
		a = a[:len(out)]
		switch r.kind {
		case And:
			b := s.b[r.lo:r.hi]
			b = b[:len(out)]
			for i := range out {
				out[i] = vals[a[i]] & vals[b[i]]
			}
		case Or:
			b := s.b[r.lo:r.hi]
			b = b[:len(out)]
			for i := range out {
				out[i] = vals[a[i]] | vals[b[i]]
			}
		case Xor:
			b := s.b[r.lo:r.hi]
			b = b[:len(out)]
			for i := range out {
				out[i] = vals[a[i]] ^ vals[b[i]]
			}
		case Not:
			for i := range out {
				out[i] = vals[a[i]] ^ 1
			}
		case Buf:
			for i := range out {
				out[i] = vals[a[i]]
			}
		}
		for len(f) > 0 && f[0].slot < s.gateBase+r.hi {
			vals[f[0].slot] = f[0].v
			f = f[1:]
		}
	}
}

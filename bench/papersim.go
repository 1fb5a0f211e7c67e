package main

import (
	"fmt"
	"math/big"
	mathbits "math/bits"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/expo"
	"repro/internal/kits"
	"repro/internal/logic"
	"repro/internal/mmmc"
	"repro/internal/systolic"
)

// cyclesPerProduct is the paper's 3l+4 clock cycles per Montgomery
// product.
func cyclesPerProduct(l int) int { return 3*l + 4 }

// eq10Cycles is the paper's cycle count for one exponentiation
// (Eq. 10 summed for this exponent): 5l+10 of pre-processing, 3l+4 per
// square and per multiply, l+2 of post-processing.
func eq10Cycles(l int, exp *big.Int) int {
	sq, mul := ladderCounts(exp)
	return 5*l + 10 + (sq+mul)*cyclesPerProduct(l) + l + 2
}

// ladderCounts returns Algorithm 3's squares (one per exponent bit
// below the top) and multiplies (one per set bit below the top).
func ladderCounts(exp *big.Int) (squares, multiplies int) {
	pop := 0
	for _, w := range exp.Bits() {
		pop += mathbits.OnesCount(uint(w))
	}
	return exp.BitLen() - 1, pop - 1
}

// simExp runs one Sim-kit Algorithm-3 exponentiation and checks its
// answer and every cycle count against the paper. It returns the
// Montgomery products it took (squares + multiplies + the pre- and
// post-processing products) and the simulated MMMC cycles.
func simExp(e *expo.Exponentiator, base, exp, want *big.Int) (products, cycles int, err error) {
	got, rep, err := e.ModExp(base, exp)
	if err != nil {
		return 0, 0, fmt.Errorf("sim-kit modexp: %w", err)
	}
	l := e.L
	sq, mul := ladderCounts(exp)
	products = sq + mul + 2
	switch {
	case got.Cmp(want) != 0:
		return 0, 0, fmt.Errorf("%w: sim-kit %d^%d mod N = %d, want %d", errMismatch, base, exp, got, want)
	case rep.Squares != sq || rep.Multiplies != mul:
		return 0, 0, fmt.Errorf("%w: sim-kit ran %d squares and %d multiplies, Algorithm 3 needs %d and %d",
			errMismatch, rep.Squares, rep.Multiplies, sq, mul)
	case rep.SimulatedMulCycles != products*cyclesPerProduct(l):
		return 0, 0, fmt.Errorf("%w: sim-kit took %d MMMC cycles for %d products, want %d (3l+4 each)",
			errMismatch, rep.SimulatedMulCycles, products, products*cyclesPerProduct(l))
	case rep.TotalCycles != eq10Cycles(l, exp):
		return 0, 0, fmt.Errorf("%w: sim-kit reports %d cycles, Eq. 10 gives %d",
			errMismatch, rep.TotalCycles, eq10Cycles(l, exp))
	}
	return products, rep.SimulatedMulCycles, nil
}

// checkProduct checks one Montgomery product: a representative in
// [0, 2N) of x·y·2^-(l+2) mod N, after exactly 3l+4 cycles.
func checkProduct(what string, got, n, want *big.Int, cycles, l int) error {
	if cycles != cyclesPerProduct(l) {
		return fmt.Errorf("%w: %s product took %d cycles, want 3l+4 = %d", errMismatch, what, cycles, cyclesPerProduct(l))
	}
	if got.Cmp(new(big.Int).Lsh(n, 1)) >= 0 || new(big.Int).Mod(got, n).Cmp(want) != 0 {
		return fmt.Errorf("%w: %s product %d, want %d mod %d", errMismatch, what, got, want, n)
	}
	return nil
}

// simMultipliers builds the Sim-kit multipliers (the cycle-accurate
// behavioural MMMC) for paper-sim's moduli.
func simMultipliers(moduli []*big.Int) ([]*core.Multiplier, error) {
	ms := make([]*core.Multiplier, len(moduli))
	for i, n := range moduli {
		m, err := core.NewMultiplier(n, core.WithKit(kits.Sim))
		if err != nil {
			return nil, err
		}
		ms[i] = m
	}
	return ms, nil
}

// gateCore is a compiled gate-level MMMC netlist.
type gateCore struct {
	sim   *logic.Sim
	ports *mmmc.NetPorts
	gates int
}

// buildGateCore builds and compiles the gate-level MMMC at width l,
// returning the compile time separately.
func buildGateCore(l int) (*gateCore, time.Duration, error) {
	nl := logic.New()
	ports, err := mmmc.BuildNetlist(nl, l, systolic.Guarded)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	sim, err := logic.Compile(nl)
	if err != nil {
		return nil, 0, err
	}
	return &gateCore{sim: sim, ports: ports, gates: nl.Census().TotalGates()}, time.Since(t0), nil
}

// product drives one multiplication as an external master does: present
// the operands, raise START for one clock, clock until DONE. It returns
// the clock cycles after the load edge, which the paper fixes at 3l+4.
func (g *gateCore) product(q *gateReq) (result *big.Int, cycles int) {
	p, s := g.ports, g.sim
	s.SetMany(p.XBus, q.xv)
	s.SetMany(p.YBus, q.yv)
	s.SetMany(p.NBus, q.nv)
	s.Set(p.Start, 1)
	s.Step()
	s.Set(p.Start, 0)
	limit := 4*p.L + 16
	for s.Get(p.Done) == 0 && cycles <= limit {
		s.Step()
		cycles++
	}
	return s.GetVec(p.Result).Big(), cycles
}

// paperSetups is how many times the in-process workloads build their
// simulators for setup_s: one build takes a millisecond or less, so the
// median of many is what stays put from run to run.
const paperSetups = 51

// runPaperSim drives the Sim kit, the cycle-accurate behavioural MMMC,
// one Montgomery product at a time at l = 256 on one goroutine.
// setup_s is building the simulated multipliers. Before timing, one
// Algorithm-3 exponentiation through the same kit checks the Eq. 10
// cycle totals.
func runPaperSim(r *runner) (*result, error) {
	in := paperInputs(r.o.seed)
	var ms []*core.Multiplier
	setups, err := setupTimes(paperSetups, 1, true, func() (time.Duration, error) {
		t0 := time.Now()
		var err error
		ms, err = simMultipliers(in.simModuli)
		return time.Since(t0), err
	})
	if err != nil {
		return nil, err
	}
	e, err := expo.NewKit(in.simModuli[in.exp.mod], kits.Sim)
	if err != nil {
		return nil, err
	}
	if _, _, err := simExp(e, in.exp.base, in.exp.exp, in.exp.want); err != nil {
		return nil, err
	}
	ld := &load{callers: 1, pids: []int{os.Getpid()}, op: func(i int64) error {
		q := &in.products[i%int64(len(in.products))]
		m := ms[q.mod]
		c0 := m.Cycles
		got, err := m.Mont(q.x, q.y)
		if err != nil {
			return err
		}
		return checkProduct("sim-kit", got, in.simModuli[q.mod], q.want, m.Cycles-c0, simL)
	}}
	if err := r.warmUp(ld); err != nil {
		return nil, err
	}
	if !r.o.trace {
		return r.timed(setups, ld)
	}
	return r.paperTraced(ld, "sim-kit/product", "mmmc.ns_per_cycle.256", simL, nil)
}

// runPaperGates drives the compiled gate-level MMMC netlist at l = 64,
// START→DONE one product at a time on one goroutine. setup_s is
// building and compiling the netlist.
func runPaperGates(r *runner) (*result, error) {
	in := paperInputs(r.o.seed)
	var compiles []float64
	var g *gateCore
	setups, err := setupTimes(paperSetups, 1, true, func() (time.Duration, error) {
		t0 := time.Now()
		var c time.Duration
		var err error
		g, c, err = buildGateCore(gateL)
		compiles = append(compiles, c.Seconds())
		return time.Since(t0), err
	})
	if err != nil {
		return nil, err
	}
	ld := &load{callers: 1, pids: []int{os.Getpid()}, op: func(i int64) error {
		q := &in.gates[i%int64(len(in.gates))]
		got, cycles := g.product(q)
		return checkProduct("gate-level", got, q.n, q.want, cycles, gateL)
	}}
	if err := r.warmUp(ld); err != nil {
		return nil, err
	}
	if !r.o.trace {
		return r.timed(setups, ld)
	}
	return r.paperTraced(ld, "gate/product", "logic.ns_per_step.64", gateL, map[string]metric{
		"logic.compile_ms.64": {median(compiles) * 1e3, "ms", int64(len(compiles))},
		"logic.gates.64":      {float64(g.gates), "count", 1},
	})
}

// paperTraced is an in-process workload's traced run: the window
// alternates quarters without and with the benchmark's own span (named
// span) around every product, then the ladder supplies the layers the
// workload bypasses. perCycle names the host-time-per-simulated-cycle
// metric the workload itself measures at width l; own holds its other
// per-layer numbers.
func (r *runner) paperTraced(ld *load, span, perCycle string, l int, own map[string]metric) (*result, error) {
	plain, traced, err := r.quarters(ld, r.spanned(span, ld.op))
	if err != nil {
		return nil, err
	}
	quarters, err := r.tracedMetrics(plain, traced)
	if err != nil {
		return nil, err
	}
	m, err := r.ladder()
	if err != nil {
		return nil, err
	}
	for _, src := range []map[string]metric{own, quarters} {
		for k, v := range src {
			m[k] = v
		}
	}
	var all loadStats
	all.add(plain)
	all.add(traced)
	n := all.ok()
	m[perCycle] = metric{median(all.lat) * 1e9 / float64(cyclesPerProduct(l)), "ns", n}
	return &result{Attempted: n, Metrics: m}, nil
}

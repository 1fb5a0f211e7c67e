package main

import (
	"context"
	"fmt"
	"math/big"
	"runtime"
	"time"

	montsys "repro"
	"repro/internal/cryptosvc"
	"repro/internal/engine"
	"repro/internal/expo"
	"repro/internal/highradix"
	"repro/internal/kits"
	"repro/internal/mont"
	"repro/internal/obs"
	"repro/internal/rsa"
)

// The ladder times one step per layer at one caller, unloaded, on the
// same operands: limb product, kit modexp, in-process engine job,
// Client→montsysd, Client→montsyslb→montsysd. A layer's own cost is the
// difference between its rung and the one below.

// ladderIn holds the operands every rung uses, with their answers.
type ladderIn struct {
	n1024, n2048       *big.Int // the first 1024- and 2048-bit moduli of modexp-hot
	base1024, base2048 *big.Int
	exp1024            *big.Int // a full-length exponent: one CRT half of an RSA-2048 signature
	want1024, want2048 *big.Int // base1024^exp1024, base2048^65537
	key                *rsa.PrivateKey
	digest, sig        *big.Int
	paper              paperInput
}

func ladderInputs(seed int64) (ladderIn, error) {
	ms := hotModuli(seed)
	rng := rngFor(seed, "ladder")
	in := ladderIn{n1024: ms[0], n2048: ms[4], paper: paperInputs(seed)}
	in.base1024, in.base2048 = randBelow(rng, in.n1024), randBelow(rng, in.n2048)
	in.exp1024 = randOdd(rng, 1024)
	in.want1024 = new(big.Int).Exp(in.base1024, in.exp1024, in.n1024)
	in.want2048 = new(big.Int).Exp(in.base2048, f4, in.n2048)
	key, err := rsaKey(rng, 2048)
	if err != nil {
		return in, err
	}
	in.key, in.digest = key, new(big.Int).Rand(rng, new(big.Int).Lsh(one, 256))
	in.sig = signCRT(key, in.digest)
	return in, nil
}

// step is one timed call of a rung and the check of its answer, which
// runs outside the timed part.
type step struct {
	name        string
	call, check func() error
}

// rounds runs the steps round-robin, one call of each per round, for at
// least d and at least min rounds, recording a span per call. Rungs
// whose difference the ladder reports run in one rounds call, so both
// see the same machine conditions. It returns each step's call
// intervals in wall-clock microseconds.
func (r *runner) rounds(d time.Duration, min int, steps ...step) ([][]interval, error) {
	ivs := make([][]interval, len(steps))
	start := time.Now()
	for n := 0; n < min || time.Since(start) < d; n++ {
		for i, s := range steps {
			t0 := time.Now()
			err := s.call()
			dt := time.Since(t0)
			if err == nil && s.check != nil {
				err = s.check()
			}
			if err != nil {
				return nil, fmt.Errorf("%s: %w", s.name, err)
			}
			r.record("ladder/"+s.name, t0, dt)
			ivs[i] = append(ivs[i], interval{us(t0), us(t0.Add(dt))})
		}
	}
	return ivs, nil
}

// medianUS is the median duration of ivs in microseconds.
func medianUS(ivs []interval) float64 {
	ds := make([]float64, len(ivs))
	for i, iv := range ivs {
		ds[i] = iv.end - iv.start
	}
	return median(ds)
}

func usMetric(ivs []interval) metric { return metric{medianUS(ivs), "us", int64(len(ivs))} }

// diffMetric is the self time of a rung: its median minus the median of
// the rung below.
func diffMetric(upper, lower []interval) metric {
	return metric{medianUS(upper) - medianUS(lower), "us", int64(len(upper))}
}

func wantEqual(what string, got, want *big.Int) error {
	if got.Cmp(want) != 0 {
		return fmt.Errorf("%w: %s = %d, want %d", errMismatch, what, got, want)
	}
	return nil
}

// ladder runs every rung on the operands of the run's seed and returns
// the per-layer metrics.
func (r *runner) ladder() (map[string]metric, error) {
	in, err := ladderInputs(r.o.seed)
	if err != nil {
		return nil, err
	}
	m := map[string]metric{}
	for _, rung := range []func(ladderIn, map[string]metric) error{
		r.rungLimbs, r.rungKit, r.rungSign, r.rungChain, r.rungPaper,
	} {
		if err := rung(in, m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// mulBatch is how many limb products one timed call runs: one product
// takes a microsecond or a few, too short to time alone.
const mulBatch = 100

// rungLimbs times highradix.Word.MulInto at 1024 and 2048 bits and a
// squaring (MulInto(a, a)) at 2048, and counts MulInto's allocations.
func (r *runner) rungLimbs(in ladderIn, m map[string]metric) error {
	var steps []step
	var mul2048 func()
	for _, c := range []struct {
		name string
		n, x *big.Int
		sqr  bool
	}{
		{"highradix.mul_ns.1024", in.n1024, in.base1024, false},
		{"highradix.mul_ns.2048", in.n2048, in.base2048, false},
		{"highradix.sqr_ns.2048", in.n2048, in.base2048, true},
	} {
		ctx, err := mont.NewCtx(c.n)
		if err != nil {
			return err
		}
		w := highradix.NewWord(ctx)
		s := w.Params().S
		y := new(big.Int).Sub(c.n, c.x)
		if c.sqr {
			y = c.x
		}
		a, b, out := mont.WordsFromBig(c.x, s), mont.WordsFromBig(y, s), make([]uint64, s)
		mul := func() {
			for i := 0; i < mulBatch; i++ {
				w.MulInto(out, a, b)
			}
		}
		if c.name == "highradix.mul_ns.2048" {
			mul2048 = mul
		}
		steps = append(steps, step{c.name, func() error { mul(); return nil }, func() error {
			// out·R ≡ x·y (mod N) with R = 2^(64·S), and out < 2N.
			got := mont.BigFromWords(out)
			lhs := new(big.Int).Lsh(got, uint(64*s))
			lhs.Sub(lhs, new(big.Int).Mul(c.x, y))
			if lhs.Mod(lhs, c.n).Sign() != 0 || got.Cmp(new(big.Int).Lsh(c.n, 1)) >= 0 {
				return fmt.Errorf("%w: MulInto(%d, %d) = %d", errMismatch, c.x, y, got)
			}
			return nil
		}})
	}
	ivs, err := r.rounds(r.o.rung, 5, steps...)
	if err != nil {
		return err
	}
	for i, s := range steps {
		m[s.name] = metric{medianUS(ivs[i]) * 1e3 / mulBatch, "ns", int64(len(ivs[i]) * mulBatch)}
	}
	const batches = 100
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < batches; i++ {
		mul2048()
	}
	runtime.ReadMemStats(&m1)
	m["highradix.allocs_per_mul"] = metric{float64(m1.Mallocs-m0.Mallocs) / (batches * mulBatch), "count", batches * mulBatch}
	return nil
}

// rungKit times the CIOS kit's ModExp with a full-length exponent at
// 1024 bits, and building a 2048-bit context: what an engine cache miss
// costs.
func (r *runner) rungKit(in ladderIn, m map[string]metric) error {
	e1024, err := expo.NewKit(in.n1024, kits.CIOS)
	if err != nil {
		return err
	}
	var got *big.Int
	var rep expo.Report
	sq, mul := ladderCounts(in.exp1024)
	ivs, err := r.rounds(r.o.rung, 5, step{"expo.modexp.1024", func() (err error) {
		got, rep, err = e1024.ModExp(in.base1024, in.exp1024)
		return err
	}, func() error {
		if rep.Squares != sq || rep.Multiplies != mul {
			return fmt.Errorf("%w: CIOS ran %d squares and %d multiplies, Algorithm 3 needs %d and %d",
				errMismatch, rep.Squares, rep.Multiplies, sq, mul)
		}
		return wantEqual("CIOS modexp 1024", got, in.want1024)
	}})
	if err != nil {
		return err
	}
	m["expo.modexp_us.1024"] = usMetric(ivs[0])
	m["expo.products_per_modexp.1024"] = metric{float64(rep.Squares + rep.Multiplies + 2), "count", int64(len(ivs[0]))}

	if ivs, err = r.rounds(r.o.rung, 5, step{"kits.ctx_build.2048", func() error {
		_, err := expo.NewKit(in.n2048, kits.CIOS)
		return err
	}, nil}); err != nil {
		return err
	}
	m["kits.ctx_build_us.2048"] = usMetric(ivs[0])
	return nil
}

// rungSign times a blinded RSA-CRT signature through the signing
// service on a two-worker CIOS engine. The engine reports every job's
// span, so the service's own time is the signature's minus the engine
// execution it covers.
func (r *runner) rungSign(in ladderIn, m map[string]metric) error {
	col := obs.NewCollector(obs.WithTracing(1 << 14))
	eng, err := engine.New(engine.WithKit(kits.CIOS), engine.WithWorkers(2), engine.WithObserver(col))
	if err != nil {
		return err
	}
	defer eng.Close()
	svc := cryptosvc.New(eng)
	var got *big.Int
	sign := func() (err error) {
		got, err = svc.SignRSA(context.Background(), in.key, in.digest)
		return err
	}
	if err := sign(); err != nil { // the context-cache misses stay out of the timing
		return err
	}
	ivs, err := r.rounds(r.o.rung, 5, step{"cryptosvc.sign.2048", sign,
		func() error { return wantEqual("signature", got, in.sig) }})
	if err != nil {
		return err
	}
	var jobs []interval
	for _, s := range col.Tracer().Spans() {
		t0 := s.Start.Add(s.QueueWait)
		jobs = append(jobs, interval{us(t0), us(t0.Add(s.Exec))})
	}
	self := make([]float64, len(ivs[0]))
	for i, iv := range ivs[0] {
		self[i] = iv.end - iv.start - covered(iv.start, iv.end, jobs)
	}
	m["cryptosvc.sign_us.2048"] = usMetric(ivs[0])
	m["cryptosvc.self_us.2048"] = metric{median(self), "us", int64(len(ivs[0]))}
	return nil
}

// rungChain times the F4 2048 job up the stack, one call of each rung
// per round: the CIOS kit, an in-process two-worker engine, a
// Client→montsysd round trip and a Client→montsyslb→montsysd round trip
// over loopback, with the traced client a traced run uses. The ladder
// fleet's counters and spans give the server, engine, cluster and trace
// metrics for workloads that bypass those layers.
func (r *runner) rungChain(in ladderIn, m map[string]metric) error {
	ctx := context.Background()
	kit, err := expo.NewKit(in.n2048, kits.CIOS)
	if err != nil {
		return err
	}
	eng, err := engine.New(engine.WithKit(kits.CIOS), engine.WithWorkers(2))
	if err != nil {
		return err
	}
	defer eng.Close()
	f, err := r.launch(fleetSpec{backends: 1, workers: 2, lb: true})
	if err != nil {
		return err
	}
	if err := f.check(); err != nil {
		return err
	}
	calls := montsys.NewTracer(4096)
	calls.SetProcess("bench-client")
	direct := montsys.Dial(f.backends[0].addr, montsys.WithClientPoolSize(1), montsys.WithClientTracing(calls, r.o.traceRate))
	defer direct.Close()
	viaLB := montsys.Dial(f.lb.addr, montsys.WithClientPoolSize(1), montsys.WithClientTracing(calls, r.o.traceRate))
	defer viaLB.Close()

	var got *big.Int
	check := func() error { return wantEqual("F4 2048", got, in.want2048) }
	wire := func(cl *montsys.Client) func() error {
		return func() (err error) {
			got, err = cl.ModExp(ctx, in.n2048, in.base2048, f4)
			return err
		}
	}
	steps := []step{
		{"expo.f4.2048", func() (err error) { got, _, err = kit.ModExp(in.base2048, f4); return err }, check},
		{"engine.modexp.2048", func() (err error) { got, _, err = eng.ModExp(ctx, in.n2048, in.base2048, f4); return err }, check},
		{"server.modexp.2048", wire(direct), check},
		{"cluster.modexp.2048", wire(viaLB), check},
	}
	for _, s := range steps { // context-cache misses and dials stay out of the timing
		if err := s.call(); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	before, err := scrapeAll(f.procs())
	if err != nil {
		return err
	}
	// Five rungs' time: at a 1% sample that leaves a few dozen complete
	// traces in the daemons' span rings.
	ivs, err := r.rounds(5*r.o.rung, 50, steps...)
	if err != nil {
		return err
	}
	after, err := scrapeAll(f.procs())
	if err != nil {
		return err
	}
	rounds := int64(len(ivs[0]))
	for k, v := range fleetLayers(f, before, after, 2*rounds, rounds) {
		m[k] = v
	}
	self, err := r.fleetSelfTimes("ladder", f, calls)
	if err != nil {
		return err
	}
	for k, v := range self {
		m[k] = v
	}
	const clientCalls = 500
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < clientCalls; i++ {
		if err := wire(direct)(); err != nil {
			return err
		}
		if err := check(); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&m1)
	if err := r.stopFleet(f); err != nil {
		return err
	}
	m["expo.f4_us.2048"] = usMetric(ivs[0])
	m["engine.job_us.2048"] = usMetric(ivs[1])
	m["engine.self_us"] = diffMetric(ivs[1], ivs[0])
	m["server.rtt_us"] = usMetric(ivs[2])
	m["server.self_us"] = diffMetric(ivs[2], ivs[1])
	m["cluster.rtt_us"] = usMetric(ivs[3])
	m["cluster.self_us"] = diffMetric(ivs[3], ivs[2])
	m["client.allocs_per_op"] = metric{float64(m1.Mallocs-m0.Mallocs) / clientCalls, "count", clientCalls}
	return nil
}

// rungPaper times one product on each of the paper's simulators, the
// Sim kit at l = 256 and the compiled gate-level netlist at l = 64, and
// reads their exact counts. The Eq. 10 count comes from a Sim-kit
// exponentiation with the all-ones 64-bit exponent, so it does not
// depend on the seed.
func (r *runner) rungPaper(in ladderIn, m map[string]metric) error {
	p := in.paper
	exp := new(big.Int).Sub(new(big.Int).Lsh(one, simEBits), one)
	e, err := expo.NewKit(p.simModuli[p.exp.mod], kits.Sim)
	if err != nil {
		return err
	}
	want := new(big.Int).Exp(p.exp.base, exp, p.simModuli[p.exp.mod])
	products, cycles, err := simExp(e, p.exp.base, exp, want)
	if err != nil {
		return err
	}
	m["mmmc.cycles_per_product.256"] = metric{float64(cycles) / float64(products), "count", int64(products)}
	m["expo.sim_cycles_per_modexp.256"] = metric{float64(eq10Cycles(simL, exp)), "count", 1}

	ms, err := simMultipliers(p.simModuli)
	if err != nil {
		return err
	}
	var compiles []float64
	var g *gateCore
	for i := 0; i < 9; i++ {
		var c time.Duration
		if g, c, err = buildGateCore(gateL); err != nil {
			return err
		}
		compiles = append(compiles, c.Seconds())
	}
	sp, gp := &p.products[0], &p.gates[0]
	var got *big.Int
	var steps int
	ivs, err := r.rounds(r.o.rung, 5, step{"sim-kit/product.256", func() (err error) {
		c0 := ms[sp.mod].Cycles
		got, err = ms[sp.mod].Mont(sp.x, sp.y)
		steps = ms[sp.mod].Cycles - c0
		return err
	}, func() error {
		return checkProduct("sim-kit", got, p.simModuli[sp.mod], sp.want, steps, simL)
	}}, step{"gate/product.64", func() error {
		got, steps = g.product(gp)
		return nil
	}, func() error {
		return checkProduct("gate-level", got, gp.n, gp.want, steps, gateL)
	}})
	if err != nil {
		return err
	}
	m["mmmc.ns_per_cycle.256"] = metric{medianUS(ivs[0]) * 1e3 / float64(cyclesPerProduct(simL)), "ns", int64(len(ivs[0]))}
	m["logic.ns_per_step.64"] = metric{medianUS(ivs[1]) * 1e3 / float64(cyclesPerProduct(gateL)), "ns", int64(len(ivs[1]))}
	m["logic.compile_ms.64"] = metric{median(compiles) * 1e3, "ms", int64(len(compiles))}
	m["logic.gates.64"] = metric{float64(g.gates), "count", 1}
	return nil
}

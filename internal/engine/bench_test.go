package engine

import (
	"context"
	"io"
	"math/big"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/expo"
	"repro/internal/kits"
	"repro/internal/obs"
)

// benchJobs builds count modexp jobs over one l-bit modulus with
// full-length random exponents — the shape of an RSA private-key
// workload.
func benchJobs(l, count int) (*big.Int, []ModExpJob) {
	rng := rand.New(rand.NewSource(int64(l)))
	n := randOdd(rng, l)
	jobs := make([]ModExpJob, count)
	for i := range jobs {
		exp := new(big.Int).Rand(rng, n)
		exp.SetBit(exp, 0, 1)
		jobs[i] = ModExpJob{N: n, Base: new(big.Int).Rand(rng, n), Exp: exp}
	}
	return n, jobs
}

// BenchmarkEngineModExp measures batch throughput of reference-mode
// 512-bit exponentiations across worker counts. On multi-core hardware
// throughput scales near-linearly up to GOMAXPROCS because jobs share
// nothing but the immutable modulus context; compare w=1 against
// BenchmarkSequentialModExp for the pool's scheduling overhead.
func BenchmarkEngineModExp(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run("l=512/w="+strconv.Itoa(workers), func(b *testing.B) {
			eng, err := New(WithWorkers(workers), WithKit(kits.Model))
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			_, jobs := benchJobs(512, b.N)
			b.ResetTimer()
			results, err := eng.ModExpBatch(context.Background(), jobs)
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			for i := range results {
				if results[i].Err != nil {
					b.Fatal(results[i].Err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
}

// BenchmarkEngineModExpObserved measures the observability overhead on
// the model-mode hot path: the same 512-bit workload with no observer,
// with the full obs.Collector (metrics only), and with metrics +
// tracing. The instrumentation is a handful of atomic adds per job
// against a ~ms modular exponentiation, so the on/off delta must stay
// in the noise (<5%); EXPERIMENTS.md records a run.
func BenchmarkEngineModExpObserved(b *testing.B) {
	cases := []struct {
		name string
		opts func() []Option
	}{
		{"observer=off", func() []Option { return nil }},
		{"observer=metrics", func() []Option {
			return []Option{WithObserver(obs.NewCollector())}
		}},
		{"observer=metrics+trace", func() []Option {
			return []Option{WithObserver(obs.NewCollector(obs.WithTracing(0)))}
		}},
	}
	for _, c := range cases {
		b.Run("l=512/w=2/"+c.name, func(b *testing.B) {
			eng, err := New(append(c.opts(), WithWorkers(2), WithKit(kits.Model))...)
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			_, jobs := benchJobs(512, b.N)
			b.ResetTimer()
			results, err := eng.ModExpBatch(context.Background(), jobs)
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			for i := range results {
				if results[i].Err != nil {
					b.Fatal(results[i].Err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
}

// BenchmarkEngineModExpSampled measures the cost of the full tracing
// plane — span ring, trace-context propagation, wide-event log lines
// (to io.Discard) — on the CIOS production hot path as a function of
// the head-sampling rate. Each job goes through the per-request path
// (its own context, a freshly minted root trace context) exactly like
// a request arriving over the wire. rate=0 is the floor: everything
// wired up but nothing sampled, so the only cost is the nil-check and
// the sampling hash. EXPERIMENTS.md records a run and where the
// overhead knee sits; the benchmark metric trace.overhead_ratio is the
// live record.
func BenchmarkEngineModExpSampled(b *testing.B) {
	for _, rate := range []float64{0, 0.01, 0.1, 1} {
		b.Run("l=512/w=2/kit=cios/sample="+strconv.FormatFloat(rate, 'g', -1, 64), func(b *testing.B) {
			col := obs.NewCollector(obs.WithTracing(0))
			col.Tracer().SetWideEvents(obs.NewWideWriter(io.Discard))
			eng, err := New(WithWorkers(2), WithKit(kits.CIOS), WithObserver(col))
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			_, jobs := benchJobs(512, b.N)
			b.ResetTimer()
			for i := range jobs {
				ctx := obs.ContextWithTrace(context.Background(), obs.NewTraceContext(rate))
				if _, _, err := eng.ModExp(ctx, jobs[i].N, jobs[i].Base, jobs[i].Exp); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
}

// BenchmarkEngineIntegrity measures the clean-path cost of the
// integrity net on the model-mode modexp hot path: checking off, and
// every job fully re-verified. The re-check is one math/big Exp —
// word-level Montgomery arithmetic, an order of magnitude faster than
// the bit-serial Model path it guards — so it must stay under 10%
// overhead; EXPERIMENTS.md ("Integrity checking on the clean path")
// records a run. No faults are injected: this is the price paid when
// nothing is wrong, which is all the time in production.
func BenchmarkEngineIntegrity(b *testing.B) {
	cases := []struct {
		name string
		opts []Option
	}{
		{"integrity=off", nil},
		{"integrity=all", []Option{WithIntegrityCheck()}},
	}
	for _, c := range cases {
		b.Run("l=512/w=2/"+c.name, func(b *testing.B) {
			eng, err := New(append([]Option{WithWorkers(2), WithKit(kits.Model)}, c.opts...)...)
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			_, jobs := benchJobs(512, b.N)
			b.ResetTimer()
			results, err := eng.ModExpBatch(context.Background(), jobs)
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			for i := range results {
				if results[i].Err != nil {
					b.Fatal(results[i].Err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
}

// BenchmarkKitModExp compares single-threaded modexp throughput across
// the compute kits at the paper's RSA bit lengths with the F4 public
// exponent (65537) — the workload where even the gate-level sim kit
// finishes in benchmarkable time. EXPERIMENTS.md records its first run;
// the ≥10× CIOS-vs-sim criterion falls out of the ops/s column. Run with -benchtime 1x or a small fixed count: the sim
// kit takes seconds per op at these lengths.
func BenchmarkKitModExp(b *testing.B) {
	for _, l := range []int{1024, 2048} {
		rng := rand.New(rand.NewSource(int64(l)))
		n := randOdd(rng, l)
		base := new(big.Int).Rand(rng, n)
		exp := big.NewInt(65537)
		for _, k := range []kits.Kit{kits.Model, kits.Sim, kits.CIOS, kits.Big} {
			b.Run("l="+strconv.Itoa(l)+"/kit="+k.String(), func(b *testing.B) {
				ex, err := expo.NewKit(n, k)
				if err != nil {
					b.Fatal(err)
				}
				want := new(big.Int).Exp(base, exp, n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					got, _, err := ex.ModExp(base, exp)
					if err != nil {
						b.Fatal(err)
					}
					if got.Cmp(want) != 0 {
						b.Fatal("wrong answer")
					}
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
			})
		}
	}
}

// BenchmarkSequentialModExp is the single-threaded baseline the
// engine's scaling is judged against.
func BenchmarkSequentialModExp(b *testing.B) {
	n, jobs := benchJobs(512, b.N)
	ex, err := expo.NewKit(n, kits.Model)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ex.ModExp(jobs[i].Base, jobs[i].Exp); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkEngineMontBatch measures raw Montgomery-product throughput
// through the pool (reference cores, 512-bit operands).
func BenchmarkEngineMontBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(512))
	n := randOdd(rng, 512)
	n2 := new(big.Int).Lsh(n, 1)
	eng, err := New(WithWorkers(4))
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	jobs := make([]MontJob, b.N)
	for i := range jobs {
		jobs[i] = MontJob{N: n, X: new(big.Int).Rand(rng, n2), Y: new(big.Int).Rand(rng, n2)}
	}
	b.ResetTimer()
	if _, err := eng.MontBatch(context.Background(), jobs); err != nil {
		b.Fatal(err)
	}
}

package server

import (
	"context"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/kits"
	"repro/internal/obs"
)

// roundTrip is an in-process client → server → engine round trip
// shaped like the served modexp-hot workload: F4 at 2048 bits on a
// two-worker CIOS engine observed by a collector, as montsysd runs it,
// over one pooled loopback connection.
type roundTrip struct {
	cl           *Client
	n, base, exp *big.Int
	want         *big.Int
	ctx          context.Context
}

func newRoundTrip(tb testing.TB) *roundTrip {
	col := obs.NewCollector()
	_, _, addr := startServer(tb,
		[]engine.Option{engine.WithWorkers(2), engine.WithKit(kits.CIOS), engine.WithObserver(col)},
		[]Option{WithRegistry(col.Registry()), WithTracer(col.Tracer())})
	cl := Dial(addr, WithPoolSize(1))
	tb.Cleanup(func() { cl.Close() })
	rng := rand.New(rand.NewSource(2))
	rt := &roundTrip{
		cl:   cl,
		n:    testModulus(tb, rng, 2048),
		base: new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 2000)),
		exp:  big.NewInt(65537),
		ctx:  context.Background(),
	}
	rt.want = new(big.Int).Exp(rt.base, rt.exp, rt.n)
	// Warm both workers' exponentiators and the connection.
	for i := 0; i < 8; i++ {
		rt.do(tb)
	}
	return rt
}

// do runs one round trip and checks its answer.
func (rt *roundTrip) do(tb testing.TB) {
	got, err := rt.cl.ModExp(rt.ctx, rt.n, rt.base, rt.exp)
	if err != nil {
		tb.Fatal(err)
	}
	if got.Cmp(rt.want) != 0 {
		tb.Fatal("round trip: wrong answer")
	}
}

// BenchmarkRoundTrip is the served round trip's rung of the ladder:
// its ns/op less the engine job's is the wire, the front door and the
// client.
func BenchmarkRoundTrip(b *testing.B) {
	rt := newRoundTrip(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.do(b)
	}
}

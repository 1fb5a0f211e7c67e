package engine

import (
	"context"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/kits"
)

// TestEngineCIOSIntegrity drives the high-radix fast path under the
// engine's full integrity net (every result verified): the CIOS kit's
// paper-R representatives must satisfy the residue checks — zero
// integrity failures, zero recomputes — while every answer matches
// math/big exactly.
func TestEngineCIOSIntegrity(t *testing.T) {
	rng := rand.New(rand.NewSource(0xC105))
	n := randOdd(rng, 1024)

	eng, err := New(WithWorkers(2), WithKit(kits.CIOS), WithIntegrityCheck())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	const count = 40
	jobs := make([]ModExpJob, count)
	for i := range jobs {
		jobs[i] = ModExpJob{N: n, Base: new(big.Int).Rand(rng, n), Exp: big.NewInt(65537)}
	}
	results, err := eng.ModExpBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if want := new(big.Int).Exp(jobs[i].Base, jobs[i].Exp, n); r.Value.Cmp(want) != 0 {
			t.Fatalf("job %d: wrong answer", i)
		}
	}

	n2 := new(big.Int).Lsh(n, 1)
	monts := make([]MontJob, count)
	for i := range monts {
		monts[i] = MontJob{N: n, X: new(big.Int).Rand(rng, n2), Y: new(big.Int).Rand(rng, n2)}
	}
	mres, err := eng.MontBatch(context.Background(), monts)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range mres {
		if r.Err != nil {
			t.Fatalf("mont job %d: %v", i, r.Err)
		}
	}

	st := eng.Stats()
	if st.IntegrityFailures != 0 || st.Recomputes != 0 {
		t.Errorf("clean CIOS run tripped integrity: %s", st)
	}
	if st.KitJobs[kits.CIOS] != 2*count {
		t.Errorf("kit accounting: kit_cios=%d, want %d", st.KitJobs[kits.CIOS], 2*count)
	}
}

// TestWorkerCacheKeyAllocs: a warm lookup in a worker's exponentiator
// cache allocates nothing. The modulus bytes go into the kit's scratch
// and the map is indexed by string(scratch); only a miss allocates its
// key. Moduli of different lengths must not collide through the
// scratch.
func TestWorkerCacheKeyAllocs(t *testing.T) {
	eng, err := New(WithWorkers(1), WithKit(kits.CIOS))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	w := newWorker(eng, 1)
	rng := rand.New(rand.NewSource(3))
	n1, n2 := randOdd(rng, 2048), randOdd(rng, 1024)
	c1, err := w.coreFor(w.kit, n1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := w.coreFor(w.kit, n2)
	if err != nil {
		t.Fatal(err)
	}
	if c1.ex == c2.ex {
		t.Fatal("two moduli share one exponentiator")
	}
	var got1, got2 core
	allocs := testing.AllocsPerRun(100, func() {
		got1, _ = w.coreFor(w.kit, n1)
		got2, _ = w.coreFor(w.kit, n2)
	})
	if allocs != 0 {
		t.Fatalf("warm cache lookups: %v allocs, want 0", allocs)
	}
	if got1 != c1 || got2 != c2 {
		t.Fatal("warm lookup did not return the cached exponentiator")
	}
}

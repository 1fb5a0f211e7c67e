package engine

import (
	"context"
	"math/big"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/kits"
)

// The per-modulus context LRU under concurrent multi-modulus pressure:
// with many more moduli than cache slots, hammered from several
// goroutines at once, contexts must be evicted and rebuilt — and every
// result must still match math/big. Run with -race (the CI engine gate
// does): the interesting failure mode is a worker holding a *mont.Ctx
// that the LRU concurrently drops and rebuilds.
func TestCtxCacheEvictionUnderConcurrentLoad(t *testing.T) {
	const (
		cacheSize = 4
		moduli    = 24 // 6× the cache — constant eviction churn
		rounds    = 3  // revisit every modulus after it was evicted
		clients   = 8
	)
	eng, err := New(WithWorkers(4), WithCtxCacheSize(cacheSize))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	rng := rand.New(rand.NewSource(5))
	ns := make([]*big.Int, moduli)
	for i := range ns {
		n := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 95))
		n.SetBit(n, 95, 1)
		n.SetBit(n, 0, 1)
		ns[i] = n
	}
	type job struct {
		n, base, exp *big.Int
	}
	jobs := make([]job, 0, moduli*rounds)
	for r := 0; r < rounds; r++ {
		for _, n := range ns {
			base := new(big.Int).Rand(rng, n)
			exp := new(big.Int).Rand(rng, n)
			exp.SetBit(exp, 0, 1)
			jobs = append(jobs, job{n, base, exp})
		}
	}

	idx := make(chan int, len(jobs))
	for i := range jobs {
		idx <- i
	}
	close(idx)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				j := jobs[i]
				v, _, err := eng.ModExp(context.Background(), j.n, j.base, j.exp)
				if err != nil {
					t.Errorf("job %d: %v", i, err)
					return
				}
				if want := new(big.Int).Exp(j.base, j.exp, j.n); v.Cmp(want) != 0 {
					t.Errorf("job %d: wrong result after cache churn", i)
					return
				}
			}
		}()
	}
	wg.Wait()

	st := eng.Stats()
	if st.CtxEvictions == 0 {
		t.Fatalf("no evictions with %d moduli over a %d-entry cache: %s",
			moduli, cacheSize, st)
	}
	if st.CtxMisses < moduli {
		t.Errorf("misses %d < distinct moduli %d", st.CtxMisses, moduli)
	}
	if st.Completed != int64(len(jobs)) {
		t.Errorf("completed %d of %d", st.Completed, len(jobs))
	}
}

// TestIntegrityLeavesCtxCacheAlone: corrupt results, their checks and
// recomputes, quarantines and known-answer probes must not touch the
// shared context LRU beyond the one lookup a core makes for its job's
// modulus. With a one-entry cache and one serving modulus, the probe
// context must not evict it, and no path may look it up twice.
func TestIntegrityLeavesCtxCacheAlone(t *testing.T) {
	// Rate 1, one-shot: every fresh kit (each core's first, and the one
	// quarantine installs) corrupts its first result — a job or a probe.
	inj := faults.New(faults.WithBitFlip(-1), faults.WithOneShot(), faults.WithSeed(3))
	eng, err := New(WithWorkers(2), WithKit(kits.CIOS), WithCtxCacheSize(1),
		WithFaultInjector(inj), WithIntegrityCheck())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	rng := rand.New(rand.NewSource(13))
	n := randOdd(rng, 256)
	f4 := big.NewInt(65537)
	// One job alone first, so the second core finds the context cached
	// instead of racing the first one to build it.
	if _, _, err := eng.ModExp(context.Background(), n, big.NewInt(3), f4); err != nil {
		t.Fatal(err)
	}
	jobs := make([]ModExpJob, 8)
	monts := make([]MontJob, 8)
	for i := range jobs {
		jobs[i] = ModExpJob{N: n, Base: new(big.Int).Rand(rng, n), Exp: f4}
		monts[i] = MontJob{N: n, X: new(big.Int).Rand(rng, n), Y: new(big.Int).Rand(rng, n)}
	}
	if _, err := eng.ModExpBatch(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.MontBatch(context.Background(), monts); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "every benched core to pass a probe", func() bool {
		st := eng.Stats()
		return st.Reinstatements >= st.Quarantines && eng.HealthyWorkers() == 2
	})

	st := eng.Stats()
	if st.Recomputes == 0 || st.Reinstatements == 0 {
		t.Fatalf("recomputes=%d reinstatements=%d: no fault or probe ran, the test proves nothing",
			st.Recomputes, st.Reinstatements)
	}
	if st.CtxEvictions != 0 || st.CtxMisses != 1 {
		t.Errorf("ctx cache: %d misses, %d evictions; want 1 miss (one modulus) and none evicted: %s",
			st.CtxMisses, st.CtxEvictions, st)
	}
	if st.Completed != 1+2*int64(len(jobs)) {
		t.Errorf("completed %d of %d", st.Completed, 1+2*len(jobs))
	}
}

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

	eng, err := New(WithWorkers(2), WithKit(kits.CIOS), WithIntegrityCheck(1))
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

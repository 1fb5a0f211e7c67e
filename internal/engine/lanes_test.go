package engine

// Property tests for the priority-lane deadline scheduler. The clock
// is virtual throughout — pop takes `now` and jobs carry their own
// enqueued times — so the EDF order, the aging bound, and the shed
// discipline are asserted deterministically, no sleeps. The stress
// test at the end exists for the -race runs CI does on this package.

import (
	"context"
	"errors"
	"math/big"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/qos"
)

// laneJob builds a bare scheduler job; the lane scheduler never touches
// the compute fields.
func laneJob(class qos.Class, deadline, enqueued time.Time) *job {
	return &job{ctx: context.Background(), class: class, deadline: deadline,
		enqueued: enqueued, heapIdx: -1}
}

// TestLaneEDFOrder: within one lane, jobs come out in deadline order,
// deadline-free jobs last and FIFO among themselves — regardless of
// push order.
func TestLaneEDFOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := time.Unix(1000, 0)
	s := newLaneScheduler(256, defaultLaneAging)

	const withDeadline, without = 40, 10
	deadlines := make([]time.Time, withDeadline)
	for i := range deadlines {
		deadlines[i] = base.Add(time.Duration(i+1) * time.Millisecond)
	}
	rng.Shuffle(len(deadlines), func(i, j int) { deadlines[i], deadlines[j] = deadlines[j], deadlines[i] })

	jobs := make([]*job, 0, withDeadline+without)
	for _, d := range deadlines {
		jobs = append(jobs, laneJob(qos.Batch, d, base))
	}
	var free []*job // deadline-free, in push order
	for i := 0; i < without; i++ {
		j := laneJob(qos.Batch, time.Time{}, base)
		jobs = append(jobs, j)
		free = append(free, j)
	}
	for _, j := range jobs {
		if v, err := s.push(context.Background(), j); err != nil || v != nil {
			t.Fatalf("push: victim=%v err=%v", v, err)
		}
	}

	var prev time.Time
	for i := 0; i < withDeadline; i++ {
		j, ok := s.pop(base)
		if !ok {
			t.Fatalf("pop %d: scheduler drained early", i)
		}
		if j.deadline.IsZero() {
			t.Fatalf("pop %d: deadline-free job before %d deadline jobs drained", i, withDeadline-i)
		}
		if i > 0 && j.deadline.Before(prev) {
			t.Fatalf("pop %d: deadline %v after %v — not EDF", i, j.deadline, prev)
		}
		prev = j.deadline
	}
	for i := 0; i < without; i++ {
		j, ok := s.pop(base)
		if !ok {
			t.Fatalf("free pop %d: scheduler drained early", i)
		}
		if j != free[i] {
			t.Fatalf("free pop %d: deadline-free jobs not FIFO", i)
		}
	}
}

// TestLaneStrictPriority: with fresh heads everywhere, lanes drain in
// class order — interactive before batch before best-effort.
func TestLaneStrictPriority(t *testing.T) {
	base := time.Unix(1000, 0)
	s := newLaneScheduler(64, defaultLaneAging)
	for i := 0; i < 5; i++ {
		for c := qos.Class(0); c < qos.NumClasses; c++ {
			if _, err := s.push(context.Background(), laneJob(c, time.Time{}, base)); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := []qos.Class{}
	for c := qos.Class(0); c < qos.NumClasses; c++ {
		for i := 0; i < 5; i++ {
			want = append(want, c)
		}
	}
	for i, wc := range want {
		j, ok := s.pop(base)
		if !ok || j.class != wc {
			t.Fatalf("pop %d: class %v, want %v", i, j.class, wc)
		}
	}
}

// TestLaneAgingBound: under a sustained stream of fresh interactive
// arrivals, a batch job is dispatched within its aging quantum rather
// than starving — once its head wait crosses one quantum it bids into
// the interactive lane and the longest-wait tie-break serves it.
func TestLaneAgingBound(t *testing.T) {
	const aging = 10 * time.Millisecond
	base := time.Unix(1000, 0)
	s := newLaneScheduler(256, aging)

	batch := laneJob(qos.Batch, time.Time{}, base)
	if _, err := s.push(context.Background(), batch); err != nil {
		t.Fatal(err)
	}

	// Virtual time advances 2ms per round; every round a fresh
	// interactive job arrives before the worker pops. Without aging the
	// batch job would lose every round forever.
	step := 2 * time.Millisecond
	bound := int(aging/step) + 2
	for i := 0; ; i++ {
		if i > bound {
			t.Fatalf("batch job not dispatched within %d pops (aging %v, step %v): starved", bound, aging, step)
		}
		now := base.Add(time.Duration(i) * step)
		if _, err := s.push(context.Background(), laneJob(qos.Interactive, time.Time{}, now)); err != nil {
			t.Fatal(err)
		}
		j, ok := s.pop(now)
		if !ok {
			t.Fatal("pop: drained")
		}
		if j == batch {
			if waited := now.Sub(base); waited < aging {
				t.Fatalf("batch job dispatched after only %v — beat a fresh interactive head before aging up", waited)
			}
			return
		}
		if j.class != qos.Interactive {
			t.Fatalf("pop %d: unexpected class %v", i, j.class)
		}
	}
}

// TestLaneShedLowestClassFirst: a full queue sheds the EDF-last job of
// the lowest lane strictly below the incoming class, and never sheds
// at or above it — an incoming job with nothing below it blocks.
func TestLaneShedLowestClassFirst(t *testing.T) {
	base := time.Unix(1000, 0)
	s := newLaneScheduler(4, defaultLaneAging)

	be1 := laneJob(qos.BestEffort, base.Add(10*time.Millisecond), base)
	be2 := laneJob(qos.BestEffort, base.Add(50*time.Millisecond), base) // EDF-last of its lane
	ba1 := laneJob(qos.Batch, base.Add(20*time.Millisecond), base)
	ba2 := laneJob(qos.Batch, base.Add(40*time.Millisecond), base)
	for _, j := range []*job{be1, be2, ba1, ba2} {
		if v, err := s.push(context.Background(), j); err != nil || v != nil {
			t.Fatalf("setup push: victim=%v err=%v", v, err)
		}
	}

	// Interactive pushes evict best-effort first (EDF-last first), then
	// batch (EDF-last first) — never another interactive.
	wantVictims := []*job{be2, be1, ba2, ba1}
	for i, want := range wantVictims {
		v, err := s.push(context.Background(), laneJob(qos.Interactive, time.Time{}, base))
		if err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
		if v != want {
			t.Fatalf("push %d: shed class=%v deadline=%v, want class=%v deadline=%v",
				i, v.class, v.deadline, want.class, want.deadline)
		}
	}
	if d := s.depth(); d != 4 {
		t.Fatalf("depth after shed churn = %d, want 4", d)
	}

	// Queue now holds only interactive: an interactive push has nothing
	// below it to shed, so it must block until the context gives up.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	v, err := s.push(ctx, laneJob(qos.Interactive, time.Time{}, base))
	if v != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("push into full same-class queue: victim=%v err=%v, want block until ctx deadline", v, err)
	}
}

// TestLaneCloseDrains: close stops admission but queued jobs drain
// before pop reports exhaustion — the engine's drain contract.
func TestLaneCloseDrains(t *testing.T) {
	base := time.Unix(1000, 0)
	s := newLaneScheduler(8, defaultLaneAging)
	for i := 0; i < 3; i++ {
		if _, err := s.push(context.Background(), laneJob(qos.Batch, time.Time{}, base)); err != nil {
			t.Fatal(err)
		}
	}
	s.close()
	for i := 0; i < 3; i++ {
		if _, ok := s.pop(base); !ok {
			t.Fatalf("pop %d: exhausted before the queue drained", i)
		}
	}
	if _, ok := s.pop(base); ok {
		t.Fatal("pop after drain: want exhaustion")
	}
	if _, err := s.push(context.Background(), laneJob(qos.Batch, time.Time{}, base)); err == nil {
		t.Fatal("push after close: want error")
	}
}

// TestDeadlineExpiredCanceledBeforeDispatch: a queued job whose
// deadline has already passed is failed with DeadlineExceeded at
// dequeue, before any array work happens, and counts as canceled —
// not completed, not failed.
func TestDeadlineExpiredCanceledBeforeDispatch(t *testing.T) {
	eng, err := New(WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	rng := rand.New(rand.NewSource(3))
	n := randOdd(rng, 64)
	base := new(big.Int).Rand(rng, n)

	res, err := eng.ModExpBatch(context.Background(), []ModExpJob{
		{N: n, Base: base, Exp: big.NewInt(65537), Deadline: time.Now().Add(-time.Second)},
	})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if !errors.Is(res[0].Err, context.DeadlineExceeded) {
		t.Fatalf("expired job: err=%v, want DeadlineExceeded", res[0].Err)
	}
	if res[0].Value != nil {
		t.Fatal("expired job: got a value — it was dispatched to a core")
	}
	st := eng.Stats()
	if st.Canceled != 1 || st.Completed != 0 {
		t.Fatalf("stats: canceled=%d completed=%d, want 1/0", st.Canceled, st.Completed)
	}
}

// BenchmarkLaneSchedPushPop: the lane scheduler's uncontended hot path
// — one push and one pop, the per-job cost that replaced the old FIFO
// channel send/receive (EXPERIMENTS.md, "QoS plane: uncontended
// overhead").
func BenchmarkLaneSchedPushPop(b *testing.B) {
	s := newLaneScheduler(1024, defaultLaneAging)
	now := time.Unix(1000, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j := laneJob(qos.Class(i%qos.NumClasses), time.Time{}, now)
		if _, err := s.push(context.Background(), j); err != nil {
			b.Fatal(err)
		}
		if _, ok := s.pop(now); !ok {
			b.Fatal("drained")
		}
	}
}

// TestLaneConcurrentStress hammers the scheduler from many producers
// and consumers at once — the -race run is the real assertion, plus
// conservation: every pushed job is either popped or shed, exactly
// once.
func TestLaneConcurrentStress(t *testing.T) {
	const producers, perProducer, capacity = 8, 200, 16
	s := newLaneScheduler(capacity, time.Millisecond)
	base := time.Unix(1000, 0)

	var popped, shed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if _, ok := s.pop(time.Now()); !ok {
					return
				}
				popped.Add(1)
			}
		}()
	}
	var pwg sync.WaitGroup
	for p := 0; p < producers; p++ {
		pwg.Add(1)
		go func(p int) {
			defer pwg.Done()
			rng := rand.New(rand.NewSource(int64(p)))
			for i := 0; i < perProducer; i++ {
				class := qos.Class(rng.Intn(qos.NumClasses))
				var dl time.Time
				if rng.Intn(2) == 0 {
					dl = base.Add(time.Duration(rng.Intn(1000)) * time.Microsecond)
				}
				v, err := s.push(context.Background(), laneJob(class, dl, time.Now()))
				if err != nil {
					t.Errorf("push: %v", err)
					return
				}
				if v != nil {
					shed.Add(1)
				}
			}
		}(p)
	}
	pwg.Wait()
	s.close()
	wg.Wait()

	total := popped.Load() + shed.Load()
	if total != producers*perProducer {
		t.Fatalf("conservation: popped %d + shed %d = %d, want %d",
			popped.Load(), shed.Load(), total, producers*perProducer)
	}
}

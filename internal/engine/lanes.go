package engine

// The priority-lane deadline scheduler. PRs 1–7 fed the worker cores
// from a single bounded FIFO channel — every queued job equally urgent,
// overload answered by blanket backpressure. This file replaces the
// channel with one lane per qos.Class:
//
//   - within a lane, earliest deadline first (deadline-free jobs rank
//     last, FIFO among themselves by sequence number);
//   - across lanes, strict priority with aging: a worker takes from
//     the most urgent non-empty lane, but a lane whose head has waited
//     k aging quanta bids k classes above its own, and ties go to the
//     longest-waiting head — so under sustained interactive overload a
//     batch job is dispatched within a bounded number of quanta
//     instead of starving;
//   - under overload, shed lowest class first: a full queue evicts the
//     least-urgent job of the lowest-priority lane below the incoming
//     job's class (failing it with ErrOverloaded) before ever blocking
//     a higher-class producer.
//
// The paper's Fig. 4 handshake holds a job in IDLE until the array can
// take it through MUL1⇄MUL2 to OUT; this scheduler is that IDLE state
// made policy-bearing — the host deciding *which* of the competing
// streams (arXiv 2009.03468's quad-core framing) enters the array next.
//
// The channel semantics the rest of the engine was built on are
// preserved exactly: push blocks under backpressure honouring the
// caller's context, and close lets workers drain every queued job
// before pop reports exhaustion.

import (
	"container/heap"
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/errs"
	"repro/internal/qos"
)

// defaultLaneAging is the engine's aging quantum: every full quantum a
// lane's head job has waited promotes the lane one class for
// scheduling, bounding how long sustained higher-priority load can
// delay it.
const defaultLaneAging = 100 * time.Millisecond

// laneHeap is one class's EDF min-heap, ordered by (deadline, seq)
// with zero deadlines ranking last.
type laneHeap []*job

func (h laneHeap) Len() int { return len(h) }

// Less is the EDF order: earlier deadline first; deadline-free jobs
// last, FIFO among themselves.
func (h laneHeap) Less(i, j int) bool { return edfBefore(h[i], h[j]) }

func edfBefore(a, b *job) bool {
	switch {
	case a.deadline.IsZero() && b.deadline.IsZero():
		return a.seq < b.seq
	case a.deadline.IsZero():
		return false
	case b.deadline.IsZero():
		return true
	case a.deadline.Equal(b.deadline):
		return a.seq < b.seq
	default:
		return a.deadline.Before(b.deadline)
	}
}

func (h laneHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx, h[j].heapIdx = i, j
}

func (h *laneHeap) Push(x any) {
	j := x.(*job)
	j.heapIdx = len(*h)
	*h = append(*h, j)
}

func (h *laneHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	j.heapIdx = -1
	return j
}

// laneScheduler is the bounded multi-lane queue between submission and
// the worker cores.
type laneScheduler struct {
	mu      sync.Mutex
	cond    *sync.Cond // workers waiting for work
	lanes   [qos.NumClasses]laneHeap
	size    int
	cap     int
	aging   time.Duration
	seq     uint64
	closed  bool
	waiters []chan struct{} // producers waiting for space, FIFO

	// onDepth, when set, reports a lane's depth after every mutation
	// (called outside the lock; depth values are captured inside).
	onDepth func(class qos.Class, depth int)
}

func newLaneScheduler(capacity int, aging time.Duration) *laneScheduler {
	s := &laneScheduler{cap: capacity, aging: aging}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// insertLocked places j in its lane and wakes one worker.
func (s *laneScheduler) insertLocked(j *job) {
	s.seq++
	j.seq = s.seq
	heap.Push(&s.lanes[j.class], j)
	s.size++
	s.cond.Signal()
}

// reportDepth invokes the depth hook outside the lock.
func (s *laneScheduler) reportDepth(class qos.Class, depth int) {
	if s.onDepth != nil {
		s.onDepth(class, depth)
	}
}

// push enqueues j, honouring the lane discipline under overload: if
// the queue is full it first sheds the least-urgent job of the lowest
// lane strictly below j's class (returned as victim for the caller to
// fail and account), and only blocks — respecting ctx — when no such
// victim exists. A push that finds the scheduler closed reports
// ErrEngineClosed (the engine checks its own closed flag first; this
// is the race backstop).
func (s *laneScheduler) push(ctx context.Context, j *job) (victim *job, err error) {
	s.mu.Lock()
	for {
		if s.closed {
			s.mu.Unlock()
			return nil, fmt.Errorf("engine: submit: %w", errs.ErrEngineClosed)
		}
		if s.size < s.cap {
			s.insertLocked(j)
			depth := len(s.lanes[j.class])
			s.mu.Unlock()
			s.reportDepth(j.class, depth)
			return nil, nil
		}
		if victim = s.shedVictimLocked(j.class); victim != nil {
			s.size--
			s.insertLocked(j)
			vd, jd := len(s.lanes[victim.class]), len(s.lanes[j.class])
			s.mu.Unlock()
			s.reportDepth(victim.class, vd)
			if victim.class != j.class {
				s.reportDepth(j.class, jd)
			}
			return victim, nil
		}
		ch := make(chan struct{}, 1)
		s.waiters = append(s.waiters, ch)
		s.mu.Unlock()
		select {
		case <-ch:
			s.mu.Lock()
		case <-ctx.Done():
			s.mu.Lock()
			s.dropWaiterLocked(ch)
			s.mu.Unlock()
			return nil, ctx.Err()
		}
	}
}

// shedVictimLocked removes and returns the least-urgent job of the
// lowest-priority non-empty lane strictly below class, or nil when
// every queued job is at or above the incoming class.
func (s *laneScheduler) shedVictimLocked(class qos.Class) *job {
	for c := qos.Class(qos.NumClasses - 1); c > class; c-- {
		lane := s.lanes[c]
		if len(lane) == 0 {
			continue
		}
		// The victim is the EDF-last job: the heap root is the most
		// urgent, so scan for the max. Lanes are O(queue depth) short,
		// and shedding only happens at saturation.
		worst := 0
		for i := 1; i < len(lane); i++ {
			if edfBefore(lane[worst], lane[i]) {
				worst = i
			}
		}
		return heap.Remove(&s.lanes[c], worst).(*job)
	}
	return nil
}

// dropWaiterLocked removes ch from the waiter list (context cancelled
// mid-wait). If ch was already signalled, the wakeup is passed on so a
// slot is never lost.
func (s *laneScheduler) dropWaiterLocked(ch chan struct{}) {
	for i, w := range s.waiters {
		if w == ch {
			s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
			return
		}
	}
	// Not on the list: a pop already signalled ch. Hand the slot to the
	// next waiter instead of swallowing it.
	s.signalWaiterLocked()
}

// signalWaiterLocked wakes the longest-waiting producer, if any.
func (s *laneScheduler) signalWaiterLocked() {
	if len(s.waiters) > 0 {
		ch := s.waiters[0]
		s.waiters = s.waiters[1:]
		ch <- struct{}{}
	}
}

// pop removes the scheduled next job, blocking until one is available.
// ok=false means the scheduler is closed and fully drained — the
// worker's signal to exit, mirroring a closed channel's range end.
func (s *laneScheduler) pop(now time.Time) (*job, bool) {
	s.mu.Lock()
	for s.size == 0 {
		if s.closed {
			s.mu.Unlock()
			return nil, false
		}
		s.cond.Wait()
	}
	c := s.chooseLaneLocked(now)
	j := heap.Pop(&s.lanes[c]).(*job)
	s.size--
	s.signalWaiterLocked()
	depth := len(s.lanes[c])
	s.mu.Unlock()
	s.reportDepth(c, depth)
	return j, true
}

// chooseLaneLocked picks the lane the next job comes from: strict
// priority with aging. Lane c's bid is c minus one class per full
// aging quantum its head job has waited (clamped at 0 — aging promotes,
// never demotes below interactive); lowest bid wins, ties go to the
// longest-waiting head. The tie-break is what makes aging effective:
// once a starved lane has aged up to the active lane's bid, its head
// has necessarily waited longer, so it is served next rather than
// losing every tie to fresh high-priority arrivals.
func (s *laneScheduler) chooseLaneLocked(now time.Time) qos.Class {
	best := qos.Class(0)
	bestBid := int(qos.NumClasses) + 1
	var bestWait time.Duration
	for c := qos.Class(0); c < qos.NumClasses; c++ {
		lane := s.lanes[c]
		if len(lane) == 0 {
			continue
		}
		wait := now.Sub(lane[0].enqueued)
		bid := int(c)
		if wait > 0 {
			bid -= int(wait / s.aging)
		}
		if bid < 0 {
			bid = 0
		}
		if bid < bestBid || (bid == bestBid && wait > bestWait) {
			best, bestBid, bestWait = c, bid, wait
		}
	}
	return best
}

// close stops admission and wakes every blocked producer and worker.
// Queued jobs stay queued: workers drain them (the drain contract of
// Engine.Close), then pop reports exhaustion.
func (s *laneScheduler) close() {
	s.mu.Lock()
	s.closed = true
	for _, ch := range s.waiters {
		ch <- struct{}{}
	}
	s.waiters = nil
	s.cond.Broadcast()
	s.mu.Unlock()
}

// depth reports the total queued jobs (tests).
func (s *laneScheduler) depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// laneDepth reports one lane's queued jobs (tests and /quotaz).
func (s *laneScheduler) laneDepth(c qos.Class) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.lanes[c])
}

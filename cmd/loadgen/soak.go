package main

// The -scenario soak workload: everything at once, for a long time,
// against a fleet that is allowed to change underneath it. Three
// tenants drive closed-loop traffic with Zipf-skewed moduli — "acme"
// (interactive, the tenant whose experience the verdict protects),
// "bulk" (batch), and "free" (best-effort scavenger) — while
// adversarial goroutines attack the same front door with slow-loris
// dribbles and malformed frames. The orchestrating script (or
// operator) joins, drains, and kill -9s backends mid-run.
//
// The verdict is printed on the last line and is binary:
//
//	SOAK OK        — zero wrong answers anywhere, zero client-visible
//	                 errors for acme, and acme's windowed p99 showed no
//	                 cliff (max ≤ soakCliffMax × median across 2s
//	                 windows) despite churn and adversaries.
//	SOAK FAILED: … — anything else, with the reasons; exit is non-zero.
//
// Wrong answers are fatal the moment they happen, for every tenant —
// churn and hostile bytes may slow the fleet or shed scavenger load,
// but never corrupt an answer.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/qos"
	"repro/internal/server"
)

// soakWindow buckets acme latencies for the p99-over-time assertion:
// long enough for a meaningful p99 per bucket, short enough that a
// cold-cache cliff after a membership change cannot hide in an average.
const soakWindow = 2 * time.Second

// soakCliffMax bounds max(windowed p99) / median(windowed p99) for the
// interactive tenant. Handover keeps moved moduli on their warm old
// home while new homes pre-warm, so even a mid-run join/leave/kill
// must not multiply the interactive tail beyond this.
const soakCliffMax = 10.0

// soakTenant is one synthetic tenant of the soak mix.
type soakTenant struct {
	name    string
	class   qos.Class
	workers int
	retries int
	strict  bool // zero client-visible errors required for the verdict
}

// soakCounts accumulates one tenant's outcome.
type soakCounts struct {
	ok    atomic.Int64
	tally *errorTally
}

// runSoak drives the composed soak against the -connect addresses.
func runSoak(ctx context.Context, cfg sweepConfig, bits []int) error {
	if cfg.connect == "" {
		return fmt.Errorf("-scenario soak requires -connect: the point is the wire front door")
	}
	addrs := make([]string, 0, 2)
	for _, a := range strings.Split(cfg.connect, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		return fmt.Errorf("no address in -connect %q", cfg.connect)
	}
	workers := cfg.clients
	if workers < 1 {
		workers = 1
	}
	tenants := []soakTenant{
		{name: "acme", class: qos.Interactive, workers: workers, retries: cfg.retries, strict: true},
		{name: "bulk", class: qos.Batch, workers: (workers + 1) / 2, retries: 1},
		{name: "free", class: qos.BestEffort, workers: (workers + 1) / 2, retries: 0},
	}
	total := 0
	for _, tn := range tenants {
		total += tn.workers
	}
	fmt.Printf("loadgen: soak %s, %d workers (%d acme / %d bulk / %d free), %d adversaries, remotes %s\n",
		cfg.duration, total, tenants[0].workers, tenants[1].workers, tenants[2].workers,
		cfg.adversaries, cfg.connect)

	// Shared Zipf-skewed workload ring: hot moduli contend across
	// tenants, exercising affinity, the context caches, and — mid-churn —
	// the handover dual-routing of exactly the keys that matter most.
	rng := rand.New(rand.NewSource(cfg.seed))
	moduli := make([]*big.Int, 0, len(bits)*cfg.keys)
	for _, l := range bits {
		for k := 0; k < cfg.keys; k++ {
			n := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(l-1)))
			n.SetBit(n, l-1, 1)
			n.SetBit(n, 0, 1)
			moduli = append(moduli, n)
		}
	}
	const ring = 8192
	zipf := rand.NewZipf(rng, 1.3, 1, uint64(len(moduli)-1))
	ringN := make([]*big.Int, ring)
	ringBase := make([]*big.Int, ring)
	for i := range ringN {
		ringN[i] = moduli[int(zipf.Uint64())]
		ringBase[i] = new(big.Int).Rand(rng, ringN[i])
	}
	exp := big.NewInt(65537)

	runCtx, cancel := context.WithTimeout(ctx, cfg.duration)
	defer cancel()
	end, _ := runCtx.Deadline()
	start := time.Now()

	// Windowed acme latencies: one bucket per soakWindow of wall time.
	nWindows := int(cfg.duration/soakWindow) + 2
	winMu := make([]sync.Mutex, nWindows)
	winLats := make([][]time.Duration, nWindows)

	counts := make([]*soakCounts, len(tenants))
	fatal := make(chan error, total)
	var wg sync.WaitGroup
	var jobSeq atomic.Int64
	for ti, tn := range tenants {
		sc := &soakCounts{tally: newErrorTally()}
		counts[ti] = sc
		cls := make([]*server.Client, len(addrs))
		for i, a := range addrs {
			cls[i] = server.Dial(a,
				server.WithPoolSize(tn.workers),
				server.WithMaxRetries(tn.retries),
				server.WithClientTenant(tn.name),
				server.WithClientClass(tn.class))
			defer cls[i].Close()
		}
		for w := 0; w < tn.workers; w++ {
			wg.Add(1)
			go func(tn soakTenant, w int) {
				defer wg.Done()
				for runCtx.Err() == nil {
					i := int(jobSeq.Add(1)) % ring
					n, base := ringN[i], ringBase[i]
					t0 := time.Now()
					v, err := cls[w%len(cls)].ModExp(runCtx, n, base, exp)
					if err != nil {
						// The run's own deadline/interrupt is the end of the
						// soak, not a served error. The deadline is read off
						// the clock too: a dial or write fails against it the
						// moment it passes, as a timeout or, through the
						// balancer, as backend_down, before the context's
						// timer fires and sets Err — and a worker spinning on
						// such instant failures would count each one.
						if !time.Now().Before(end) || runCtx.Err() != nil &&
							(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
							return
						}
						sc.tally.add(classify(err))
						continue
					}
					sc.ok.Add(1)
					if tn.strict {
						if wi := int(t0.Sub(start) / soakWindow); wi >= 0 && wi < nWindows {
							winMu[wi].Lock()
							winLats[wi] = append(winLats[wi], time.Since(t0))
							winMu[wi].Unlock()
						}
					}
					// A wrong answer is always fatal, for every tenant:
					// churn may shed load, never corrupt it.
					if want := new(big.Int).Exp(base, exp, n); v.Cmp(want) != 0 {
						fatal <- fmt.Errorf("tenant %s worker %d: self-check failed (WRONG ANSWER) for ring job %d", tn.name, w, i)
						cancel()
						return
					}
				}
			}(tn, w)
		}
	}

	// The adversaries: half dribble bytes to trip the slow-loris guard,
	// half throw malformed frames at the decoder. Both loop reconnecting
	// for the whole run — every cut connection is the server defending
	// itself, counted, and the real assertion is that the well-behaved
	// traffic above never notices.
	var loris, malformed soakAdversaryStats
	for i := 0; i < cfg.adversaries; i++ {
		wg.Add(1)
		target := addrs[i%len(addrs)]
		if i%2 == 0 {
			go func() { defer wg.Done(); soakSlowLoris(runCtx, target, &loris) }()
		} else {
			seed := cfg.seed + int64(i)
			go func() { defer wg.Done(); soakMalformed(runCtx, target, seed, &malformed) }()
		}
	}

	wg.Wait()
	wall := time.Since(start)
	select {
	case err := <-fatal:
		return err
	default:
	}
	if err := ctx.Err(); err != nil {
		return err // interrupted by signal before the soak window ended
	}

	// Report.
	fmt.Printf("\n%-6s %-12s %10s %10s %12s\n", "tenant", "class", "ok", "errors", "goodput/s")
	var problems []string
	for ti, tn := range tenants {
		sc := counts[ti]
		fmt.Printf("%-6s %-12s %10d %10d %12.1f   (%s)\n",
			tn.name, tn.class, sc.ok.Load(), int64(sc.tally.total()),
			float64(sc.ok.Load())/wall.Seconds(), sc.tally)
		if tn.strict && sc.tally.total() > 0 {
			problems = append(problems, fmt.Sprintf(
				"tenant %s saw %d client-visible errors (%s); the soak demands zero",
				tn.name, sc.tally.total(), sc.tally))
		}
		if tn.strict && sc.ok.Load() == 0 {
			problems = append(problems, fmt.Sprintf("tenant %s completed zero requests", tn.name))
		}
	}
	fmt.Printf("adversaries: slow-loris %d connections (%d cut by the server), malformed %d frames over %d connections\n",
		loris.conns.Load(), loris.cuts.Load(), malformed.frames.Load(), malformed.conns.Load())

	// Windowed p99: the churn-cliff assertion. The first and last
	// windows are partial (ramp-up, drain of the closed loop) and
	// sparsely filled windows have no meaningful p99; both are skipped.
	var p99s []time.Duration
	fmt.Printf("acme p99 by %s window:", soakWindow)
	for wi := 1; wi < nWindows-1; wi++ {
		lats := winLats[wi]
		if len(lats) < 20 {
			continue
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		p := pct(lats, 99)
		p99s = append(p99s, p)
		fmt.Printf(" %s", p)
	}
	fmt.Println()
	if len(p99s) >= 3 {
		sorted := append([]time.Duration(nil), p99s...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		median, max := sorted[len(sorted)/2], sorted[len(sorted)-1]
		ratio := float64(max) / float64(median)
		fmt.Printf("acme p99 windows: median %s, max %s, cliff ratio %.2fx (limit %.0fx)\n",
			median, max, ratio, soakCliffMax)
		if ratio > soakCliffMax {
			problems = append(problems, fmt.Sprintf(
				"p99 cliff: worst window %s is %.1fx the median %s (limit %.0fx) — a membership change went cold",
				max, ratio, median, soakCliffMax))
		}
	} else {
		fmt.Println("acme p99 windows: too few full windows for the cliff assertion (short -duration)")
	}

	fmt.Printf("wall %s\n", wall.Round(time.Millisecond))
	if len(problems) > 0 {
		return fmt.Errorf("SOAK FAILED: %s", strings.Join(problems, "; "))
	}
	fmt.Println("SOAK OK")
	return nil
}

// soakAdversaryStats counts one adversary family's activity.
type soakAdversaryStats struct {
	conns  atomic.Int64 // connections opened
	cuts   atomic.Int64 // connections the server closed on us (the guard firing)
	frames atomic.Int64 // malformed frames delivered
}

// soakSlowLoris connects and dribbles a never-finishing frame one byte
// at a time until the server's frame-progress deadline cuts it, then
// reconnects. A server without the guard would accumulate one parked
// read-loop goroutine per cycle, forever.
func soakSlowLoris(ctx context.Context, addr string, st *soakAdversaryStats) {
	for ctx.Err() == nil {
		d := net.Dialer{Timeout: 2 * time.Second}
		nc, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			soakPause(ctx, 500*time.Millisecond)
			continue
		}
		st.conns.Add(1)
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], 1<<16) // promise 64 KiB, deliver a trickle
		if _, err := nc.Write(hdr[:]); err == nil {
			for ctx.Err() == nil {
				if _, err := nc.Write([]byte{0x17}); err != nil {
					st.cuts.Add(1) // the guard fired
					break
				}
				// The server never answers an unfinished frame; a read
				// error is it hanging up on us mid-dribble.
				nc.SetReadDeadline(time.Now().Add(250 * time.Millisecond))
				if _, err := nc.Read(make([]byte, 1)); err != nil {
					if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
						st.cuts.Add(1)
						break
					}
				}
			}
		}
		nc.Close()
	}
}

// soakMalformed throws garbage frames — random bytes, truncated
// headers, hostile length claims, near-valid prefixes — at the wire
// decoder. Every frame must be answered with a typed protocol error or
// a hangup; the soak's real assertion is that none of them ever panics
// a server or corrupts a neighbor's answer.
func soakMalformed(ctx context.Context, addr string, seed int64, st *soakAdversaryStats) {
	rng := rand.New(rand.NewSource(seed))
	for ctx.Err() == nil {
		d := net.Dialer{Timeout: 2 * time.Second}
		nc, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			soakPause(ctx, 500*time.Millisecond)
			continue
		}
		st.conns.Add(1)
		for f := 0; f < 16 && ctx.Err() == nil; f++ {
			var frame []byte
			switch rng.Intn(4) {
			case 0: // random payload under a truthful header
				payload := make([]byte, rng.Intn(256))
				rng.Read(payload)
				frame = make([]byte, 4+len(payload))
				binary.BigEndian.PutUint32(frame, uint32(len(payload)))
				copy(frame[4:], payload)
			case 1: // near-valid: right version byte, then noise
				payload := make([]byte, 2+rng.Intn(64))
				rng.Read(payload)
				payload[0] = 0x01 // wire protocol version
				frame = make([]byte, 4+len(payload))
				binary.BigEndian.PutUint32(frame, uint32(len(payload)))
				copy(frame[4:], payload)
			case 2: // hostile length claim with nothing behind it
				frame = make([]byte, 4)
				binary.BigEndian.PutUint32(frame, 1<<30)
			default: // truncated header
				frame = make([]byte, 1+rng.Intn(3))
				rng.Read(frame)
			}
			if _, err := nc.Write(frame); err != nil {
				st.cuts.Add(1)
				break
			}
			st.frames.Add(1)
			// Drain whatever typed rejection comes back; a hangup ends
			// the cycle.
			nc.SetReadDeadline(time.Now().Add(250 * time.Millisecond))
			buf := make([]byte, 512)
			if _, err := nc.Read(buf); err != nil {
				if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
					st.cuts.Add(1)
					break
				}
			}
		}
		nc.Close()
	}
}

// soakPause sleeps without outliving the run.
func soakPause(ctx context.Context, d time.Duration) {
	select {
	case <-ctx.Done():
	case <-time.After(d):
	}
}

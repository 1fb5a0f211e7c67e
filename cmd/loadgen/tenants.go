package main

// The -scenario tenants workload: three synthetic tenants share one
// fleet through the QoS plane, and one of them is hostile. "acme" is a
// well-behaved interactive tenant sending well inside its quota; "hog"
// floods at 10× its configured rate; "bulk" is best-effort scavenger
// traffic. The scenario reports goodput, tail latency, and rejection
// counts per tenant, and exits non-zero if the well-behaved tenant's
// error rate exceeds its budget — i.e. if the hostile tenant managed
// to hurt a neighbor despite the plane. That exit code is the
// isolation assertion CI's qos-integration job runs against a live
// fleet.
//
// The servers must enforce quotas for the verdict to mean anything:
// start montsysd/montsyslb with -qos tenantsQoSSpec (printed in the
// run header) or an equivalent table.

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/qos"
	"repro/internal/server"
)

// tenantsQoSSpec is the server-side quota table this scenario is tuned
// against. acme's 100/s send rate sits far inside its 400/s quota;
// hog's 500/s send rate is 10× its 50/s quota, so ~90% of its traffic
// must bounce off its own token bucket; bulk runs inside its rate but
// in the best-effort class, so it is shed first when lanes back up.
const tenantsQoSSpec = "acme:rate=400,burst=100,weight=4,class=interactive;" +
	"hog:rate=50,burst=10,weight=2,class=batch;" +
	"bulk:rate=200,burst=50,weight=1,class=best-effort"

// tenantLoad describes one synthetic tenant's offered load.
type tenantLoad struct {
	name    string
	class   qos.Class
	rate    float64 // target send rate, requests/s
	retries int     // per-call retry budget (hostile tenants don't back off)

	// budget is the highest tolerable error fraction for this tenant;
	// negative disables the check (the hostile and scavenger tenants
	// are *supposed* to be rejected).
	budget float64
}

// tenantResult accumulates one tenant's outcome across submitters.
type tenantResult struct {
	sent  atomic.Int64
	lats  []time.Duration
	tally *errorTally
}

// count reads one class's tally (helper for the per-tenant report).
func (t *errorTally) count(class string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n[class]
}

// runTenants drives the three-tenant isolation experiment against the
// -connect addresses. The run window scales with -jobs (jobs/100
// seconds, minimum 1s); each tenant's job count is its rate times the
// window. Moduli are drawn Zipf-skewed from the shared key set, so hot
// moduli exercise the per-modulus caches and the balancer's affinity
// plane under multi-tenant contention.
func runTenants(ctx context.Context, cfg sweepConfig, bits []int) error {
	if cfg.connect == "" {
		return fmt.Errorf("-scenario tenants requires -connect: QoS admission is a wire surface")
	}
	loads := []tenantLoad{
		{name: "acme", class: qos.Interactive, rate: 100, retries: cfg.retries, budget: 0.02},
		{name: "hog", class: qos.Batch, rate: 500, retries: 0, budget: -1},
		{name: "bulk", class: qos.BestEffort, rate: 150, retries: 0, budget: -1},
	}
	window := time.Duration(float64(cfg.jobs) / 100 * float64(time.Second))
	if window < time.Second {
		window = time.Second
	}
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}

	// Shared fixed key set, same construction as the modexp scenario so
	// every rerun (and every backend of a fleet) sees the same moduli.
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
	exp := big.NewInt(65537) // F4: cheap per call, so rates stay the story

	addrs := strings.Split(cfg.connect, ",")
	fmt.Printf("loadgen: tenants scenario, %s window, %d moduli (Zipf), remotes %s\n",
		window, len(moduli), cfg.connect)
	fmt.Printf("loadgen: servers should enforce -qos %q\n\n", tenantsQoSSpec)

	results := make([]*tenantResult, len(loads))
	errCh := make(chan error, len(loads)*cfg.clients)
	var wg sync.WaitGroup
	start := time.Now()
	for ti, l := range loads {
		jobs := int(l.rate * window.Seconds())
		res := &tenantResult{lats: make([]time.Duration, jobs), tally: newErrorTally()}
		results[ti] = res

		// Per-tenant clients: identity is a client default here (the
		// ambient-context path is exercised by the unit tests), and the
		// hostile tenant gets zero retries — an abuser doesn't politely
		// honor retry-after hints.
		var cls []*server.Client
		for _, a := range addrs {
			if a = strings.TrimSpace(a); a == "" {
				continue
			}
			cl := server.Dial(a,
				server.WithPoolSize(cfg.clients),
				server.WithMaxRetries(l.retries),
				server.WithClientTenant(l.name),
				server.WithClientClass(l.class))
			defer cl.Close()
			cls = append(cls, cl)
		}
		if len(cls) == 0 {
			return fmt.Errorf("no address in -connect %q", cfg.connect)
		}

		// Deterministic per-tenant workload: Zipf-skewed modulus indices
		// and bases drawn up front, so submitters share no rng.
		trng := rand.New(rand.NewSource(cfg.seed + int64(ti+1)))
		zipf := rand.NewZipf(trng, 1.3, 1, uint64(len(moduli)-1))
		midx := make([]int, jobs)
		bases := make([]*big.Int, jobs)
		for i := range midx {
			midx[i] = int(zipf.Uint64())
			bases[i] = new(big.Int).Rand(trng, moduli[midx[i]])
		}

		idx := make(chan int, jobs)
		for i := 0; i < jobs; i++ {
			idx <- i
		}
		close(idx)
		submitters := cfg.clients
		if submitters < 1 {
			submitters = 1
		}
		rate := l.rate
		for s := 0; s < submitters; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					// Open-loop pacing: job i is due at start + i/rate,
					// regardless of how earlier jobs fared — a throttled
					// tenant does not slow its own offered load.
					due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
					if d := time.Until(due); d > 0 {
						select {
						case <-time.After(d):
						case <-ctx.Done():
							return
						}
					}
					if ctx.Err() != nil {
						return
					}
					n := moduli[midx[i]]
					res.sent.Add(1)
					t0 := time.Now()
					v, err := cls[i%len(cls)].ModExp(ctx, n, bases[i], exp)
					res.lats[i] = time.Since(t0)
					if err != nil {
						res.tally.add(classify(err))
						res.lats[i] = -1
						continue
					}
					// A wrong answer is always fatal — QoS pressure is
					// allowed to reject work, never to corrupt it.
					if want := new(big.Int).Exp(bases[i], exp, n); v.Cmp(want) != 0 {
						errCh <- fmt.Errorf("tenant %s job %d: self-check failed (WRONG ANSWER)", loads[ti].name, i)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	wall := time.Since(start)
	select {
	case err := <-errCh:
		return err
	default:
	}
	if err := ctx.Err(); err != nil && cfg.timeout == 0 {
		return err // interrupted by signal, not by the -timeout cap
	}

	fmt.Printf("%-6s %-12s %6s %6s %8s %6s %6s %10s %9s %9s\n",
		"tenant", "class", "sent", "ok", "ratelim", "shed", "other", "goodput/s", "p50", "p99")
	var verdicts []string
	for ti, l := range loads {
		res := results[ti]
		sent := int(res.sent.Load())
		okl := okLats(res.lats[:])
		ratelim := res.tally.count("rate_limited")
		shed := res.tally.count("overloaded")
		other := res.tally.total() - ratelim - shed
		fmt.Printf("%-6s %-12s %6d %6d %8d %6d %6d %10.1f %9s %9s\n",
			l.name, l.class, sent, len(okl), ratelim, shed, other,
			float64(len(okl))/wall.Seconds(), pct(okl, 50), pct(okl, 99))
		if l.budget >= 0 && sent > 0 {
			frac := float64(sent-len(okl)) / float64(sent)
			if frac > l.budget {
				verdicts = append(verdicts, fmt.Sprintf(
					"tenant %s: error rate %.1f%% exceeds budget %.1f%% (isolation failed: a neighbor's flood reached a well-behaved tenant)",
					l.name, 100*frac, 100*l.budget))
			}
		}
	}
	fmt.Printf("\nwall %s  (hog offered 10x its quota; its rejections are the plane working)\n",
		wall.Round(time.Millisecond))
	if len(verdicts) > 0 {
		return fmt.Errorf("%s", strings.Join(verdicts, "; "))
	}
	fmt.Println("isolation held: every well-behaved tenant stayed inside its error budget")
	return nil
}

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
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"sort"
	"strings"
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
	lats  []time.Duration // -1 until the job is answered
	tally *errorTally
}

// tenantJob is one entry of the merged open-loop schedule: tenant t's
// job k, due at start+due.
type tenantJob struct {
	t, k    int
	due     time.Duration
	n, base *big.Int
}

// runTenants drives the three-tenant isolation experiment against the
// -connect addresses. The run window scales with -jobs (jobs/100
// seconds, minimum 1s); each tenant's job count is its rate times the
// window. Moduli are drawn Zipf-skewed from the shared key set, so hot
// moduli exercise the per-modulus caches and the balancer's affinity
// plane under multi-tenant contention.
func runTenants(ctx context.Context, cfg sweepConfig, bits []int) error {
	loads := []tenantLoad{
		{name: "acme", class: qos.Interactive, rate: 100, retries: cfg.retries, budget: 0.02},
		{name: "hog", class: qos.Batch, rate: 500, retries: 0, budget: -1},
		{name: "bulk", class: qos.BestEffort, rate: 150, retries: 0, budget: -1},
	}
	window := max(time.Duration(float64(cfg.jobs)/100*float64(time.Second)), time.Second)
	mods := moduli(rand.New(rand.NewSource(cfg.seed)), bits, cfg.keys)
	exp := big.NewInt(65537) // F4: cheap per call, so rates stay the story

	fmt.Printf("loadgen: tenants scenario, %s window, %d moduli (Zipf), remotes %s\n",
		window, len(mods), cfg.connect)
	fmt.Printf("loadgen: servers should enforce -qos %q\n\n", tenantsQoSSpec)

	results := make([]*tenantResult, len(loads))
	clients := make([]clientSet, len(loads))
	var sched []tenantJob
	for ti, l := range loads {
		// Per-tenant clients: identity is a client default here (the
		// ambient-context path is exercised by the unit tests), and the
		// hostile tenant gets zero retries — an abuser doesn't politely
		// honor retry-after hints.
		cls, err := cfg.dial(server.WithMaxRetries(l.retries),
			server.WithClientTenant(l.name), server.WithClientClass(l.class))
		if err != nil {
			return err
		}
		defer cls.Close()
		clients[ti] = cls

		// Deterministic per-tenant workload: Zipf-skewed moduli and
		// bases drawn up front, so submitters share no rng.
		jobs := int(l.rate * window.Seconds())
		res := &tenantResult{lats: make([]time.Duration, jobs), tally: newErrorTally()}
		results[ti] = res
		trng := rand.New(rand.NewSource(cfg.seed + int64(ti+1)))
		zipf := rand.NewZipf(trng, 1.3, 1, uint64(len(mods)-1))
		for k := range res.lats {
			res.lats[k] = -1
			n := mods[zipf.Uint64()]
			due := time.Duration(float64(k) / l.rate * float64(time.Second))
			sched = append(sched, tenantJob{t: ti, k: k, due: due, n: n, base: new(big.Int).Rand(trng, n)})
		}
	}
	// Open-loop pacing: job k of a tenant is due at k/rate, regardless of
	// how earlier jobs fared — a throttled tenant does not slow its own
	// offered load. The schedules merge in due order, so the submitters
	// take jobs as they fall due.
	sort.SliceStable(sched, func(a, b int) bool { return sched[a].due < sched[b].due })

	start := time.Now()
	err := drive(ctx, len(sched), len(loads)*cfg.clients, func(ctx context.Context, _, i int) error {
		j := sched[i]
		if d := time.Until(start.Add(j.due)); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			return nil
		}
		res := results[j.t]
		res.sent.Add(1)
		t0 := time.Now()
		v, err := clients[j.t].pick(j.k).ModExp(ctx, j.n, j.base, exp)
		if err != nil {
			res.tally.add(err)
			return nil
		}
		res.lats[j.k] = time.Since(t0)
		// A wrong answer is always fatal — QoS pressure is allowed to
		// reject work, never to corrupt it.
		if want := new(big.Int).Exp(j.base, exp, j.n); v.Cmp(want) != 0 {
			return fmt.Errorf("tenant %s job %d: self-check failed (WRONG ANSWER)", loads[j.t].name, j.k)
		}
		return nil
	})
	wall := time.Since(start)
	// Running into the -timeout cap ends the window early and is
	// reported; an interrupt or a wrong answer is not.
	if err != nil && !(cfg.timeout > 0 && errors.Is(err, context.DeadlineExceeded)) {
		return err
	}

	fmt.Printf("%-6s %-12s %6s %6s %8s %6s %6s %10s %9s %9s\n",
		"tenant", "class", "sent", "ok", "ratelim", "shed", "other", "goodput/s", "p50", "p99")
	var verdicts []string
	for ti, l := range loads {
		res := results[ti]
		sent := int(res.sent.Load())
		okl := okLats(res.lats)
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

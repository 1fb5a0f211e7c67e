package cluster

import (
	"context"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// backend is one montsysd instance as the cluster sees it: the wire
// client, the cluster-side in-flight count (the load signal for
// least-inflight and spill decisions), the health flag, and the two
// failure streaks that clear it.
type backend struct {
	addr string
	zone string
	cl   *server.Client

	// gone is closed when the backend is retired from the pool,
	// stopping its probe loop.
	gone chan struct{}

	inflight atomic.Int64
	upFlag   atomic.Bool

	// transportStreak counts consecutive transport failures — failed
	// probes and live ErrBackendDown answers alike; any success from
	// either source resets it, and reaching failThreshold ejects the
	// backend (see Cluster.transportFailed).
	transportStreak atomic.Int64

	// integrityStreak counts consecutive ErrIntegrity answers from
	// live traffic; any success resets it, and reaching the configured
	// threshold ejects the backend (see Cluster.observe).
	integrityStreak atomic.Int64

	met *backendMetrics
}

func (b *backend) up() bool { return b.upFlag.Load() }

func (b *backend) setUp(v bool) {
	b.upFlag.Store(v)
	if v {
		b.met.up.Set(1)
	} else {
		b.met.up.Set(0)
	}
}

func (b *backend) acquire() {
	b.inflight.Add(1)
	b.met.inflight.Add(1)
}

func (b *backend) release() {
	b.inflight.Add(-1)
	b.met.inflight.Add(-1)
}

// probeLoop health-checks one backend until the cluster closes or the
// backend is retired from the pool, applying each outcome through
// probed. While the backend is up, probes run every probeInterval;
// while down, they back off exponentially up to reinstateMax. Every
// wait is jittered to 50–150% so a fleet of balancers neither probes
// nor reinstates in lockstep. initial delays the first probe: seeds
// stagger across a jittered probe interval, while a runtime Join probes
// immediately so the new member enters rotation after one RTT.
func (c *Cluster) probeLoop(b *backend, initial time.Duration) {
	defer c.wg.Done()
	backoff := c.cfg.reinstateBase
	timer := time.NewTimer(initial)
	defer timer.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-b.gone:
			b.setUp(false) // a probe that raced retire must not leave it up
			return
		case <-timer.C:
		}
		ctx, cancel := context.WithTimeout(context.Background(), c.cfg.probeTimeout)
		_, err := b.cl.Ping(ctx)
		cancel()

		c.probed(b, err)

		next := c.cfg.probeInterval
		if err == nil {
			backoff = c.cfg.reinstateBase
		} else if !b.up() {
			next = backoff
			backoff = min(2*backoff, c.cfg.reinstateMax)
		}
		timer.Reset(jitter(next))
	}
}

// probed applies one probe outcome. A success resets the transport
// streak and reinstates an ejected backend — the only way back into
// rotation; live traffic never reinstates. A failure adds to the
// streak that live ErrBackendDown answers feed too.
func (c *Cluster) probed(b *backend, err error) {
	if err != nil {
		b.met.probeFailures.Inc()
		c.transportFailed(b, err)
		return
	}
	b.transportStreak.Store(0)
	if !b.up() {
		b.integrityStreak.Store(0)
		b.setUp(true)
		b.met.reinstatements.Inc()
	}
}

// jitter spreads d to 50–150% of its nominal value.
func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

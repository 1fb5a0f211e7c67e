package engine

import (
	"container/list"
	"math/big"
	"sync"

	"repro/internal/mont"
)

// ctxCache is a thread-safe LRU cache of Montgomery contexts keyed by
// modulus. Building a mont.Ctx costs a modular inversion (R⁻¹ mod N)
// and a reduction (R² mod N) — the paper's host-side pre-processing —
// so workloads that revisit moduli (RSA keys under sustained traffic)
// skip it after the first job. A cached *mont.Ctx is immutable and is
// handed out to every worker core that asks; the cores build their own
// mutable circuits on top (see worker.go).
//
// The engine counts the traffic (Engine.modCtx): get reports whether
// it hit and whether caching a new context evicted one — evictions are
// the signal that the cache is sized below the working set and
// precomputations are being redone.
type ctxCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used
	m   map[string]*list.Element
}

type ctxEntry struct {
	key string
	ctx *mont.Ctx
}

func newCtxCache(capacity int) *ctxCache {
	return &ctxCache{cap: capacity, ll: list.New(), m: make(map[string]*list.Element, capacity)}
}

// get returns the context for modulus n, building and caching it on a
// miss. Errors from mont.NewCtx (even or too-small moduli) are not
// cached — the sentinels make them cheap to produce again. hit reports
// a cached context; evicted reports that caching the new one dropped
// the least recently used.
func (c *ctxCache) get(n *big.Int) (ctx *mont.Ctx, hit, evicted bool, err error) {
	key := string(n.Bytes())
	c.mu.Lock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		ctx = el.Value.(*ctxEntry).ctx
		c.mu.Unlock()
		return ctx, true, false, nil
	}
	c.mu.Unlock()

	// Build outside the lock: the inversion is the expensive part, and
	// two workers racing to build the same context is harmless — both
	// results are correct, one wins the map.
	ctx, err = mont.NewCtx(n)
	if err != nil {
		return nil, false, false, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok { // lost the race; adopt the winner
		c.ll.MoveToFront(el)
		return el.Value.(*ctxEntry).ctx, false, false, nil
	}
	c.m[key] = c.ll.PushFront(&ctxEntry{key: key, ctx: ctx})
	if c.ll.Len() > c.cap {
		old := c.ll.Back()
		c.ll.Remove(old)
		delete(c.m, old.Value.(*ctxEntry).key)
		evicted = true
	}
	return ctx, false, evicted, nil
}

// modCtx returns the shared context for modulus n, counting the lookup
// as a hit or a miss and any eviction it caused.
func (e *Engine) modCtx(n *big.Int) (*mont.Ctx, error) {
	ctx, hit, evicted, err := e.cache.get(n)
	if hit {
		e.met.ctxHits.Inc()
	} else {
		e.met.ctxMisses.Inc()
	}
	if evicted {
		e.met.ctxEvictions.Inc()
	}
	return ctx, err
}

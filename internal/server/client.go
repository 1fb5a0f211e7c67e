package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/errs"
	"repro/internal/obs"
	"repro/internal/qos"
)

// ClientOption configures a Client.
type ClientOption func(*clientConfig)

type clientConfig struct {
	pool        int
	dialTimeout time.Duration
	maxRetries  int
	backoffBase time.Duration
	backoffMax  time.Duration
	tracer      *obs.Tracer
	sampleRate  float64
	rootTraces  bool
	tenant      string
	class       qos.Class
}

// WithPoolSize bounds the client's pooled connections (default 2).
// Every connection is pipelined — many concurrent calls share one —
// so the pool is about spreading load across server read loops, not
// about one-call-per-connection.
func WithPoolSize(n int) ClientOption { return func(c *clientConfig) { c.pool = n } }

// WithDialTimeout bounds each dial (default 5s); the call context can
// only tighten it.
func WithDialTimeout(d time.Duration) ClientOption {
	return func(c *clientConfig) { c.dialTimeout = d }
}

// WithMaxRetries sets how many times a transient failure is retried
// after the first attempt (default 3; 0 disables retries).
func WithMaxRetries(n int) ClientOption { return func(c *clientConfig) { c.maxRetries = n } }

// WithBackoff sets the retry backoff: base doubles per attempt up to
// max, and each sleep is jittered ±50% so a fleet of retrying clients
// does not stampede in lockstep (defaults 10ms, 1s).
func WithBackoff(base, max time.Duration) ClientOption {
	return func(c *clientConfig) { c.backoffBase, c.backoffMax = base, max }
}

// WithClientTracing makes this client a trace head: calls whose
// context carries no trace yet mint a root trace context, sampled
// deterministically at rate (0 = never, 1 = always), and sampled calls
// — minted or inherited — record one client span into t (nil t: ids
// still propagate on the wire, nothing is recorded locally). Either
// way the trace context is sent to the server in the traced op
// variants, so the spans every downstream layer records join under
// this call. Without this option the client still forwards a sampled
// context it finds on ctx — propagation is always on, only root
// creation is opt-in.
func WithClientTracing(t *obs.Tracer, rate float64) ClientOption {
	return func(c *clientConfig) { c.tracer, c.sampleRate, c.rootTraces = t, rate, true }
}

// WithClientTenant stamps every request from this client with a tenant
// id, so a QoS-enabled server accounts it against that tenant's quota.
// A qos.Identity on the call context overrides the client default
// per call. Pings are never tagged (they bypass admission anyway).
func WithClientTenant(tenant string) ClientOption {
	return func(c *clientConfig) { c.tenant = tenant }
}

// WithClientClass sets the default QoS class requests are tagged with
// (interactive when unset). Like the tenant, a qos.Identity on the
// call context overrides it per call.
func WithClientClass(class qos.Class) ClientOption {
	return func(c *clientConfig) { c.class = class }
}

// Client talks the montsysd wire protocol. It pools connections, and
// pipelines on each of them: concurrent calls share a connection, each
// tagged with a request id and matched to its response whenever the
// server finishes it. Transient failures — ErrOverloaded, ErrDraining,
// dials refused, connections dropped — are retried with exponential
// backoff and jitter, bounded by WithMaxRetries and the call context.
//
// Retries after an ambiguous failure (the request was written but the
// connection died before the response) are safe because every op is
// idempotent — an invariant opTable documents and every new op must
// keep.
//
// A Client is safe for concurrent use by multiple goroutines.
type Client struct {
	addr string
	cfg  clientConfig

	nextID atomic.Uint64

	mu     sync.Mutex
	conns  []*cconn
	rr     int
	closed bool
	rng    *rand.Rand
}

// Dial prepares a client for addr. Connections are established lazily
// on first use (and re-established after failures), so Dial itself
// performs no I/O.
func Dial(addr string, opts ...ClientOption) *Client {
	cfg := clientConfig{
		pool:        2,
		dialTimeout: 5 * time.Second,
		maxRetries:  3,
		backoffBase: 10 * time.Millisecond,
		backoffMax:  time.Second,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.pool < 1 {
		cfg.pool = 1
	}
	if cfg.backoffBase <= 0 {
		cfg.backoffBase = 10 * time.Millisecond
	}
	if cfg.backoffMax < cfg.backoffBase {
		cfg.backoffMax = cfg.backoffBase
	}
	return &Client{
		addr: addr,
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

// Close closes every pooled connection; in-flight calls fail. Further
// calls return ErrEngineClosed-wrapped errors.
func (c *Client) Close() error {
	c.mu.Lock()
	conns := c.conns
	c.conns = nil
	c.closed = true
	c.mu.Unlock()
	for _, cc := range conns {
		cc.fail(fmt.Errorf("server: client closed: %w", errs.ErrEngineClosed))
	}
	return nil
}

// ModExp computes Base^Exp mod N on the remote engine.
func (c *Client) ModExp(ctx context.Context, n, base, exp *big.Int) (*big.Int, error) {
	resp, err := c.call(ctx, tripleRequest(OpModExp, n, base, exp))
	if err != nil {
		return nil, err
	}
	return resp.values[0], nil
}

// Mont computes the raw Montgomery product X·Y·R⁻¹ mod 2N remotely.
func (c *Client) Mont(ctx context.Context, n, x, y *big.Int) (*big.Int, error) {
	resp, err := c.call(ctx, tripleRequest(OpMont, n, x, y))
	if err != nil {
		return nil, err
	}
	return resp.values[0], nil
}

// Ping health-checks the server. On success it returns the server's
// current in-flight request count — a cheap load signal for balancers.
// A draining server answers ErrDraining; an unreachable one
// ErrBackendDown (wrapping the dial error). Pings bypass the server's
// admission control, so they keep answering under overload.
func (c *Client) Ping(ctx context.Context) (inflight int64, err error) {
	resp, err := c.call(ctx, &request{op: OpPing})
	if err != nil {
		return 0, err
	}
	return resp.values[0].Int64(), nil
}

// Join registers a backend address (with its zone label) with a
// membership-aware server — the montsyslb balancer — and returns the
// member count after the change. Idempotent: re-joining a present
// member with the same zone is a no-op, so registration loops retry
// blindly. Servers without a membership surface answer ErrProtocol.
func (c *Client) Join(ctx context.Context, addr, zone string) (members int, err error) {
	resp, err := c.call(ctx, &request{op: OpJoin, member: &memberBody{addr: addr, zone: zone}})
	if err != nil {
		return 0, err
	}
	return int(resp.values[0].Int64()), nil
}

// Goodbye deregisters a backend address and returns the member count
// after the change. Idempotent: saying goodbye to an absent member is
// a no-op. A draining backend calls this on every balancer *before*
// its own Shutdown, so new work reroutes while in-flight work finishes.
func (c *Client) Goodbye(ctx context.Context, addr string) (members int, err error) {
	resp, err := c.call(ctx, &request{op: OpGoodbye, member: &memberBody{addr: addr}})
	if err != nil {
		return 0, err
	}
	return int(resp.values[0].Int64()), nil
}

// ModExpBatch runs an order-preserving exponentiation batch remotely:
// results[i] answers jobs[i], with per-item errors mapped back to the
// same sentinels the in-process engine returns. Per-job Deadline
// fields are not transmitted — the call context's deadline governs the
// whole batch on the wire.
func (c *Client) ModExpBatch(ctx context.Context, jobs []engine.ModExpJob) ([]engine.ModExpResult, error) {
	trips := make([]triple, len(jobs))
	for i, j := range jobs {
		trips[i] = triple{n: j.N, a: j.Base, b: j.Exp}
	}
	resp, err := c.call(ctx, &request{op: OpBatchModExp, jobs: trips})
	if err != nil {
		return nil, err
	}
	if len(resp.values) != len(jobs) {
		return nil, fmt.Errorf("server: batch answered %d of %d items: %w",
			len(resp.values), len(jobs), errs.ErrProtocol)
	}
	results := make([]engine.ModExpResult, len(jobs))
	for i := range results {
		if e := errFor(resp.codes[i], resp.msgs[i]); e != nil {
			results[i].Err = e
		} else {
			results[i].Value = resp.values[i]
		}
	}
	return results, nil
}

// transientCode reports whether a wire code signals a condition worth
// retrying against the same (or a re-dialed) endpoint. CodeBackendDown
// is transient the same way draining is: a balancer that answered it
// may have reinstated a backend by the next attempt.
func transientCode(code Code) bool {
	return code == CodeOverloaded || code == CodeDraining || code == CodeBackendDown
}

// retryAction is what the retry loop does with a decoded error response.
type retryAction int

const (
	// retryNo: terminal — return the mapped error to the caller.
	retryNo retryAction = iota
	// retryBackoff: transient — retry after a jittered exponential
	// backoff step.
	retryBackoff
	// retryAfterHint: rate limited — the server named the exact moment
	// its bucket refills. Wait out the hint (no jitter, no exponential
	// growth: retrying sooner is guaranteed to be rejected again, and
	// later wastes the tenant's token) and retry, or give up immediately
	// when the call's deadline cannot cover the wait.
	retryAfterHint
)

// retryDecision classifies a response code for the retry loop. Kept as
// a pure function of the code so the whole decision table is unit-
// testable without a server.
func retryDecision(code Code) retryAction {
	switch {
	case code == CodeRateLimited:
		return retryAfterHint
	case transientCode(code):
		return retryBackoff
	default:
		return retryNo
	}
}

// call wraps the retry loop with the tracing head: resolve the call's
// trace context (inherited from ctx, or minted when WithClientTracing
// is on), run the retries under it, and record one client span
// covering the whole call — every retry included — when sampled. req
// carries the op and its body; each attempt stamps its own id,
// deadline, trace context and QoS identity on a copy.
func (c *Client) call(ctx context.Context, req *request) (*response, error) {
	tc, traced := c.traceContext(ctx, req.op)
	if !traced {
		return c.callRetry(ctx, req, obs.TraceContext{}, nil)
	}
	span := obs.NewSpanID()
	start := time.Now()
	var attempts int
	resp, err := c.callRetry(ctx, req, tc.Child(span), &attempts)
	if c.cfg.tracer != nil {
		outcome := "ok"
		if err != nil {
			outcome = CodeOf(err).String()
		}
		c.cfg.tracer.Record(obs.Span{
			Name: "call/" + req.op.String(), Track: "client", Outcome: outcome,
			Start: start, Exec: time.Since(start),
			TraceID: tc.TraceID, SpanID: span, Parent: tc.SpanID,
			Attrs: []obs.Attr{
				{Key: "addr", Val: c.addr},
				{Key: "attempts", Val: strconv.Itoa(attempts)},
			},
		})
	}
	return resp, err
}

// traceContext resolves the trace context for one call: a sampled
// context on ctx wins (propagation is unconditional); otherwise a
// root context is minted when this client is a trace head. Ops whose
// row has no traced variant (pings and membership ops — health probes
// and control plane, not service traffic) are never traced.
func (c *Client) traceContext(ctx context.Context, op Op) (obs.TraceContext, bool) {
	if opTable[op].traced == 0 {
		return obs.TraceContext{}, false
	}
	if tc, ok := obs.TraceFromContext(ctx); ok {
		return tc, tc.Sampled
	}
	if c.cfg.rootTraces {
		tc := obs.NewTraceContext(c.cfg.sampleRate)
		return tc, tc.Sampled
	}
	return obs.TraceContext{}, false
}

// callRetry runs one request with the retry loop around tryOnce. When
// the retry budget runs out on a network-level failure (the dial
// refused, or the connection died and could not be re-established), the
// returned error wraps errs.ErrBackendDown around the underlying
// transport error so failover layers can classify it with errors.Is.
// A failure that was an answer returns that answer too, which
// Client.Forward hands on verbatim. attempts, when non-nil, counts
// tryOnce invocations for the caller's span.
func (c *Client) callRetry(ctx context.Context, req *request, tc obs.TraceContext,
	attempts *int) (*response, error) {
	var lastErr error
	var lastResp *response // the last failure's answer; nil after a network failure
	for attempt := 0; ; attempt++ {
		if attempts != nil {
			*attempts = attempt + 1
		}
		resp, err := c.tryOnce(ctx, req, tc)
		switch {
		case err == nil && resp.code == CodeOK:
			return resp, nil
		case err == nil:
			lastResp, lastErr = resp, errFor(resp.code, resp.msg)
			switch retryDecision(resp.code) {
			case retryNo:
				return resp, lastErr
			case retryAfterHint:
				var rl *errs.RateLimited
				if attempt >= c.cfg.maxRetries || !errors.As(lastErr, &rl) {
					return resp, lastErr
				}
				if dl, ok := ctx.Deadline(); ok && time.Until(dl) < rl.RetryAfter {
					// The bucket refills after the call would already be
					// dead — don't burn the remaining budget waiting.
					return resp, lastErr
				}
				if err := sleepCtx(ctx, rl.RetryAfter); err != nil {
					return nil, err
				}
				continue
			}
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			return nil, err
		case errors.Is(err, errs.ErrEngineClosed) || errors.Is(err, errs.ErrProtocol):
			return nil, err
		default:
			// A network-level failure, possibly after the request was
			// written: every op is idempotent, so it retries either way.
			lastResp, lastErr = nil, err
		}
		if attempt >= c.cfg.maxRetries {
			if lastResp == nil && !errors.Is(lastErr, errs.ErrBackendDown) {
				return nil, fmt.Errorf("server: %s unreachable after %d attempts: %w (%w)",
					c.addr, attempt+1, errs.ErrBackendDown, lastErr)
			}
			return lastResp, fmt.Errorf("server: giving up after %d attempts: %w", attempt+1, lastErr)
		}
		if err := c.sleep(ctx, attempt); err != nil {
			return nil, err
		}
	}
}

// sleepCtx waits exactly d — the rate limiter's retry-after path, which
// must not jitter — or returns early with the context's error.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// sleep waits out one jittered exponential backoff step, or returns
// early with the context's error.
func (c *Client) sleep(ctx context.Context, attempt int) error {
	d := c.cfg.backoffBase << uint(attempt)
	if d > c.cfg.backoffMax || d <= 0 {
		d = c.cfg.backoffMax
	}
	// Jitter to 50–150% of the nominal step.
	c.mu.Lock()
	j := c.rng.Int63n(int64(d))
	c.mu.Unlock()
	d = d/2 + time.Duration(j)
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// tryOnce performs a single attempt: pick or dial a connection, write
// the request, wait for its response.
func (c *Client) tryOnce(ctx context.Context, tmpl *request, tc obs.TraceContext) (*response, error) {
	cc, err := c.conn(ctx)
	if err != nil {
		return nil, err
	}
	id := c.nextID.Add(1)
	ca := &call{op: tmpl.op, forwarded: tmpl.body != nil, done: make(chan struct{})}
	if err := cc.register(id, ca); err != nil {
		c.drop(cc)
		return nil, err
	}
	req := *tmpl
	req.id, req.tc = id, tc
	// Tag the request with its QoS identity: a non-zero identity on the
	// call context wins, else the client's configured defaults. The
	// encoder drops it for ops whose row takes no tag.
	qid := qos.FromContext(ctx)
	if qid == (qos.Identity{}) {
		qid = qos.Identity{Tenant: c.cfg.tenant, Class: c.cfg.class}
	}
	req.tenant, req.class = qid.Tenant, qid.Class
	if dl, ok := ctx.Deadline(); ok {
		req.deadline = dl
	}
	if err := cc.write(ctx, &req, ca.forwarded); err != nil {
		cc.unregister(id)
		c.drop(cc)
		return nil, err
	}
	select {
	case <-ca.done:
		if ca.err != nil {
			c.drop(cc)
			return nil, ca.err
		}
		return ca.resp, nil
	case <-ctx.Done():
		cc.unregister(id)
		return nil, ctx.Err()
	}
}

// conn returns a pooled connection, dialing a new one while the pool
// is below size. Dead connections are pruned as they are encountered.
func (c *Client) conn(ctx context.Context) (*cconn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("server: client closed: %w", errs.ErrEngineClosed)
	}
	live := c.conns[:0]
	for _, cc := range c.conns {
		if !cc.dead() {
			live = append(live, cc)
		}
	}
	c.conns = live
	if len(c.conns) >= c.cfg.pool {
		cc := c.conns[c.rr%len(c.conns)]
		c.rr++
		c.mu.Unlock()
		return cc, nil
	}
	c.mu.Unlock()

	dctx := ctx
	if c.cfg.dialTimeout > 0 {
		var cancel context.CancelFunc
		dctx, cancel = context.WithTimeout(ctx, c.cfg.dialTimeout)
		defer cancel()
	}
	var d net.Dialer
	nc, err := d.DialContext(dctx, "tcp", c.addr)
	if err != nil {
		return nil, err
	}
	cc := &cconn{cl: c, nc: nc, pending: make(map[uint64]*call)}
	go cc.readLoop()

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		cc.fail(fmt.Errorf("server: client closed: %w", errs.ErrEngineClosed))
		return nil, fmt.Errorf("server: client closed: %w", errs.ErrEngineClosed)
	}
	c.conns = append(c.conns, cc)
	c.mu.Unlock()
	return cc, nil
}

// drop removes a broken connection from the pool.
func (c *Client) drop(cc *cconn) {
	cc.fail(fmt.Errorf("server: connection dropped"))
	c.mu.Lock()
	for i, x := range c.conns {
		if x == cc {
			c.conns = append(c.conns[:i], c.conns[i+1:]...)
			break
		}
	}
	c.mu.Unlock()
}

// call is one in-flight request on a connection. A forwarded call's
// answer keeps its body undecoded.
type call struct {
	op        Op
	forwarded bool
	resp      *response
	err       error
	done      chan struct{}
}

// cconn is one pooled client connection: a write mutex serializing
// frames out, and a read loop matching response ids to pending calls.
type cconn struct {
	cl *Client
	nc net.Conn

	wmu  sync.Mutex // serializes writes
	wbuf []byte     // the frame being written, kept for the next

	mu      sync.Mutex
	pending map[uint64]*call
	broken  error
}

func (cc *cconn) dead() bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.broken != nil
}

func (cc *cconn) register(id uint64, ca *call) error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.broken != nil {
		return cc.broken
	}
	cc.pending[id] = ca
	return nil
}

func (cc *cconn) unregister(id uint64) {
	cc.mu.Lock()
	delete(cc.pending, id)
	cc.mu.Unlock()
}

// write sends req as one frame in one write, honoring the context's
// deadline. A forwarded request carries its body bytes in place of
// the codec's.
func (cc *cconn) write(ctx context.Context, req *request, forwarded bool) error {
	cc.wmu.Lock()
	defer cc.wmu.Unlock()
	if dl, ok := ctx.Deadline(); ok {
		cc.nc.SetWriteDeadline(dl)
	} else {
		cc.nc.SetWriteDeadline(time.Time{})
	}
	b := append(cc.wbuf[:0], 0, 0, 0, 0)
	if forwarded {
		b = append(appendHeader(b, req), req.body...)
	} else {
		b = appendRequest(b, req)
	}
	cc.wbuf = sealFrame(b)
	_, err := cc.nc.Write(cc.wbuf)
	if cap(cc.wbuf) > maxKeptWriteBuf {
		cc.wbuf = nil
	}
	return err
}

// fail marks the connection broken, fails every pending call, and
// closes the socket.
func (cc *cconn) fail(err error) {
	cc.mu.Lock()
	if cc.broken == nil {
		cc.broken = err
	}
	pend := cc.pending
	cc.pending = make(map[uint64]*call)
	cc.mu.Unlock()
	for _, ca := range pend {
		ca.err = err
		close(ca.done)
	}
	cc.nc.Close()
}

// readLoop matches response frames to pending calls by request id.
// A decoded answer copies what it keeps out of the frame, so the frame
// is recycled; a forwarded answer keeps a copy of its body.
func (cc *cconn) readLoop() {
	br := bufio.NewReader(cc.nc)
	for {
		frame, err := readPooledFrame(br, DefaultMaxFrame)
		if err != nil {
			cc.fail(fmt.Errorf("server: connection lost: %w", err))
			return
		}
		err = cc.deliver(*frame)
		putFrame(frame)
		if err != nil {
			cc.fail(err)
			return
		}
	}
}

// deliver answers the pending call a response payload belongs to.
func (cc *cconn) deliver(payload []byte) error {
	id, err := responseID(payload)
	if err != nil {
		return err
	}
	cc.mu.Lock()
	ca, ok := cc.pending[id]
	if ok {
		delete(cc.pending, id)
	}
	cc.mu.Unlock()
	if !ok {
		return nil // response to an abandoned (ctx-expired) call
	}
	var resp *response
	if ca.forwarded {
		resp, err = forwardedResponse(bytes.Clone(payload))
	} else {
		resp, err = decodeResponse(ca.op, payload)
	}
	if err != nil {
		ca.err = err
		close(ca.done)
		return err
	}
	ca.resp = resp
	close(ca.done)
	return nil
}

// responseID extracts the request id from a response payload without
// decoding the body.
func responseID(payload []byte) (uint64, error) {
	if len(payload) < 9 || payload[0] != ProtoVersion {
		return 0, fmt.Errorf("server: malformed response header: %w", errs.ErrProtocol)
	}
	return binary.BigEndian.Uint64(payload[1:9]), nil
}

package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cryptosvc"
	"repro/internal/engine"
	"repro/internal/errs"
	"repro/internal/obs"
	"repro/internal/qos"
)

// Option configures a Server.
type Option func(*config)

// writeTimeout bounds each response write, so a stalled client cannot
// pin the goroutine writing to it forever.
const writeTimeout = time.Minute

// maxKeptWriteBuf bounds the response buffer a connection keeps between
// writes; a larger answer's buffer is left to the collector.
const maxKeptWriteBuf = 64 << 10

type config struct {
	maxInflight  int
	idleTimeout  time.Duration
	frameTimeout time.Duration
	maxFrame     int
	registry     *obs.Registry
	tracer       *obs.Tracer
	signSvc      *cryptosvc.Service
	qos          *qos.Plane
}

// WithMaxInflight bounds the requests admitted and not yet answered,
// across all connections (default 4× the engine's worker count).
// Beyond the bound the server fast-fails with ErrOverloaded instead of
// queueing without limit — shed load early, keep latency flat.
func WithMaxInflight(n int) Option { return func(c *config) { c.maxInflight = n } }

// WithIdleTimeout closes connections that send no request for d
// (default 2 minutes; ≤ 0 disables).
func WithIdleTimeout(d time.Duration) Option { return func(c *config) { c.idleTimeout = d } }

// WithFrameTimeout bounds the time from a request frame's first byte to
// its last (default 10 s; ≤ 0 disables). This is the slow-loris guard,
// distinct from the idle timeout: idleness between frames is legitimate
// (a pool connection between bursts), but a frame that has *started*
// and then dribbles one byte per idle-period would hold its reader
// goroutine and partial-frame buffer indefinitely. The deadline is
// absolute per frame, so trickling bytes cannot keep extending it.
func WithFrameTimeout(d time.Duration) Option { return func(c *config) { c.frameTimeout = d } }

// WithMaxFrame bounds request frame payloads (default DefaultMaxFrame).
func WithMaxFrame(n int) Option { return func(c *config) { c.maxFrame = n } }

// WithRegistry collects the server's metrics into an existing registry
// — share it with the engine's obs.Collector and one /metrics page
// carries the whole pipeline.
func WithRegistry(r *obs.Registry) Option { return func(c *config) { c.registry = r } }

// WithTracer records one server span per sampled request (traced wire
// ops) into t — share the engine collector's tracer and /trace shows
// the server span parenting the engine's job spans, and the tracer's
// wide-event writer logs the server line. Untraced requests never touch
// the tracer.
func WithTracer(t *obs.Tracer) Option { return func(c *config) { c.tracer = t } }

// WithQoS puts a per-tenant QoS plane in front of admission: each
// non-ping request is charged against its tenant's token bucket and
// concurrency share before competing for the global in-flight bound.
// Bucket exhaustion answers CodeRateLimited with a retry-after hint;
// share exhaustion answers CodeOverloaded. Untagged (legacy) requests
// are accounted to the plane's fold-in tenant, so old clients keep
// working under the default quota. A nil plane leaves QoS off.
func WithQoS(p *qos.Plane) Option { return func(c *config) { c.qos = p } }

// Server is the TCP front door of an engine.Engine (NewServer), or of a
// Forwarder that hands requests on to other servers (NewForwardingServer:
// the cluster balancer). It multiplexes many client connections onto
// either, speaking the length-prefixed binary protocol of this package. Each connection gets a
// dedicated read goroutine. Each admitted request runs on a request
// goroutine of the server's own, reused from one request to the next,
// and that goroutine writes its response itself under the
// connection's write mutex, so responses return in completion order
// (pipelining). Admission control bounds in-flight requests across all
// connections, and with them the request goroutines, and fast-fails the
// excess with ErrOverloaded. Ping requests are answered inline on the
// read loop — no admission slot, so health checks still answer under
// overload. Shutdown drains gracefully: stop accepting, answer new
// requests with ErrDraining, finish and write everything already
// admitted, then close.
type Server struct {
	eng *engine.Engine     // executes every op; nil on a forwarding server
	svc *cryptosvc.Service // the signing ops' service over eng
	fwd Forwarder          // non-nil on a forwarding server
	cfg config
	met *metrics

	inflight chan struct{}

	// tasks hands an admitted request to an idle request goroutine;
	// reqGoroutines counts the request goroutines alive, at most
	// cap(inflight), and loopWG waits for them once baseCtx ends.
	tasks         chan task
	reqGoroutines atomic.Int64
	loopWG        sync.WaitGroup

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*sconn]struct{}
	draining bool
	reqWG    sync.WaitGroup // admitted requests
	connWG   sync.WaitGroup // connection handlers
}

// NewServer wraps an engine. The engine stays caller-owned: Shutdown
// and Close never close it, so one engine can outlive several servers
// (or serve in-process callers at the same time).
func NewServer(eng *engine.Engine, opts ...Option) (*Server, error) {
	if eng == nil {
		return nil, fmt.Errorf("server: nil engine")
	}
	s, err := newServer(&Server{eng: eng}, 4*eng.Workers(), opts)
	if err != nil {
		return nil, err
	}
	if s.svc = s.cfg.signSvc; s.svc == nil {
		s.svc = cryptosvc.New(eng)
	}
	return s, nil
}

// newServer completes s — an engine or forwarding server — from the
// options.
func newServer(s *Server, defaultInflight int, opts []Option) (*Server, error) {
	cfg := config{
		maxInflight:  defaultInflight,
		idleTimeout:  2 * time.Minute,
		frameTimeout: 10 * time.Second,
		maxFrame:     DefaultMaxFrame,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.maxInflight < 1 {
		return nil, fmt.Errorf("server: max in-flight must be positive, got %d", cfg.maxInflight)
	}
	if cfg.maxFrame < 64 {
		return nil, fmt.Errorf("server: max frame %d too small", cfg.maxFrame)
	}
	if cfg.registry == nil {
		cfg.registry = obs.NewRegistry()
	}
	s.cfg = cfg
	s.met = newMetrics(cfg.registry)
	s.inflight = make(chan struct{}, cfg.maxInflight)
	s.tasks = make(chan task)
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.conns = make(map[*sconn]struct{})
	return s, nil
}

// Registry returns the registry the server's metrics live in.
func (s *Server) Registry() *obs.Registry { return s.cfg.registry }

// Serve accepts connections on ln until Shutdown or Close. It returns
// nil after a graceful stop, or the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("server: Serve after shutdown: %w", errs.ErrDraining)
	}
	if s.ln != nil {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("server: Serve called twice")
	}
	s.ln = ln
	s.mu.Unlock()

	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.isDraining() {
				return nil
			}
			return fmt.Errorf("server: accept: %w", err)
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			nc.Close()
			return nil
		}
		c := newSconn(s, nc)
		s.conns[c] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		s.met.connections.Add(1)
		go c.run()
	}
}

// Addr reports the listener address once Serve has been called, nil
// before.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Shutdown drains the server gracefully: stop accepting connections,
// answer newly arriving requests with ErrDraining, let every admitted
// request finish and its response flush, then close all connections.
// The context bounds the wait; on expiry the remaining connections are
// torn down hard, in-flight work is cancelled, and ctx.Err() returns.
// Shutdown does not close the engine.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return fmt.Errorf("server: Shutdown twice: %w", errs.ErrDraining)
	}
	s.draining = true
	ln := s.ln
	s.mu.Unlock()
	s.met.drains.Inc()
	if ln != nil {
		ln.Close()
	}

	// Phase 1: wait for every admitted request to finish.
	drained := make(chan struct{})
	go func() {
		s.reqWG.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
		s.baseCancel() // cancel in-flight engine work
		<-drained      // engine jobs unwind promptly once cancelled
	}

	// Phase 2: every admitted response is written; unblock every
	// reader so the handlers exit, then wait for them (bounded by ctx
	// on the slow path: hard-close if it fires).
	s.mu.Lock()
	for c := range s.conns {
		c.softClose()
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		if err == nil {
			err = ctx.Err()
		}
		s.mu.Lock()
		for c := range s.conns {
			c.hardClose()
		}
		s.mu.Unlock()
		<-done
	}
	s.baseCancel()
	s.loopWG.Wait()
	return err
}

// Close tears the server down immediately: listener closed, in-flight
// engine work cancelled, connections reset. Prefer Shutdown.
func (s *Server) Close() error {
	s.mu.Lock()
	alreadyDraining := s.draining
	s.draining = true
	ln := s.ln
	conns := make([]*sconn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.baseCancel()
	for _, c := range conns {
		c.hardClose()
	}
	s.connWG.Wait()
	s.loopWG.Wait()
	if alreadyDraining {
		return fmt.Errorf("server: Close after shutdown: %w", errs.ErrDraining)
	}
	return nil
}

// sconn is one server-side connection: a reader (run), and the
// response buffer and write mutex that every goroutine answering one of
// its requests writes through.
type sconn struct {
	srv *Server
	nc  net.Conn

	wmu  sync.Mutex
	wbuf []byte // the frame being written, kept for the next
	werr error  // the first write error; later frames are dropped

	pending sync.WaitGroup // requests admitted on this connection

	closeOnce sync.Once
}

func newSconn(s *Server, nc net.Conn) *sconn {
	return &sconn{srv: s, nc: nc}
}

// softClose unblocks the reader without cutting the socket, letting
// admitted requests finish and write their responses before the reader
// closes it.
func (c *sconn) softClose() {
	c.nc.SetReadDeadline(time.Now())
}

// hardClose cuts the socket.
func (c *sconn) hardClose() {
	c.closeOnce.Do(func() { c.nc.Close() })
}

// run is the connection's read loop. On exit it waits for the
// connection's admitted requests, whose responses are then written,
// closes the socket, and deregisters.
func (c *sconn) run() {
	s := c.srv
	br := bufio.NewReader(c.nc)
	for {
		// Once draining, never re-arm a read deadline: Shutdown's
		// softClose sets an already-expired one to unblock this loop,
		// and steady inbound traffic (health probes answer inline even
		// while draining) must not keep resurrecting the deadline and
		// pin the connection — that turns a drain into its full budget.
		if s.cfg.idleTimeout > 0 && !s.isDraining() {
			c.nc.SetReadDeadline(time.Now().Add(s.cfg.idleTimeout))
		}
		framed := false
		if s.cfg.frameTimeout > 0 {
			// Wait under the idle deadline for the frame's first byte
			// (Peek returns instantly when pipelined bytes are already
			// buffered), then hold the whole frame to an absolute
			// progress deadline. Idleness *between* frames is legitimate;
			// a frame that has started and then dribbles one byte per
			// idle-period is a slow-loris holding this reader goroutine
			// and its partial-frame buffer — the absolute deadline cannot
			// be extended by trickling bytes. A frame already wholly
			// buffered is read without touching the socket, so it needs
			// no deadline.
			if _, err := br.Peek(1); err != nil {
				break // EOF, idle timeout, soft close, or peer reset
			}
			if !frameBuffered(br) && !s.isDraining() {
				c.nc.SetReadDeadline(time.Now().Add(s.cfg.frameTimeout))
				framed = true
			}
		}
		frame, err := readPooledFrame(br, s.cfg.maxFrame)
		if err != nil {
			if errors.Is(err, errs.ErrProtocol) {
				// Oversize frame: the header parsed, so answer with a
				// typed rejection before hanging up instead of leaving
				// the client to diagnose a bare reset.
				s.met.oversizeFrames.Inc()
				c.write(OpModExp, &response{code: CodeProtocol, msg: err.Error()})
				s.met.finish(OpModExp, CodeProtocol, 0)
			} else if ne, ok := err.(net.Error); ok && ne.Timeout() && framed {
				// The frame started but missed its progress deadline —
				// idle expiry surfaces in Peek above, so this timeout is
				// the slow-loris guard firing mid-frame.
				s.met.slowLorisCloses.Inc()
			}
			break
		}
		req, derr := decodeRequest(*frame)
		if derr != nil {
			// The stream is unframed from here on; answer id 0 with the
			// protocol code and hang up.
			c.write(OpModExp, &response{code: CodeProtocol, msg: derr.Error()})
			s.met.finish(OpModExp, CodeProtocol, 0)
			putFrame(frame)
			break
		}
		c.dispatch(task{c: c, req: req, frame: frame, start: time.Now()})
	}

	c.pending.Wait()
	c.hardClose()

	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.met.connections.Add(-1)
	s.connWG.Done()
}

// frameBuffered reports whether br already holds a whole frame, header
// and payload, so reading it cannot block.
func frameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < 4 {
		return false
	}
	hdr, _ := br.Peek(4)
	return uint64(br.Buffered()-4) >= uint64(binary.BigEndian.Uint32(hdr))
}

// write renders one response frame into the connection's buffer and
// writes it, under the write mutex, on the calling goroutine: the read
// loop for inline answers, a request goroutine for admitted ones. After
// a write error it drops every later frame, so no request goroutine
// waits on a dead connection; the read loop closes the socket when it
// exits.
func (c *sconn) write(op Op, resp *response) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.werr != nil {
		return
	}
	c.wbuf = sealFrame(appendResponse(append(c.wbuf[:0], 0, 0, 0, 0), op, resp))
	c.nc.SetWriteDeadline(time.Now().Add(writeTimeout))
	_, c.werr = c.nc.Write(c.wbuf)
	if cap(c.wbuf) > maxKeptWriteBuf {
		c.wbuf = nil
	}
}

// task is one decoded request from its read to its answer.
type task struct {
	c       *sconn
	req     *request
	frame   *[]byte // the request's frame buffer, recycled once answered
	start   time.Time
	release func(time.Duration) // returns the QoS share slot; nil without QoS
}

// dispatch admits one decoded request. Ops whose row is inline (ping,
// join, goodbye) are answered right here on the read loop, without an
// admission slot or a QoS charge: health checks and control plane must
// keep answering exactly when the data plane is saturated or every
// tenant is throttled, and their calls are in-memory and
// bounded, so they cannot stall the connection. Drain and overload
// rejections answer inline too (fast fail — no goroutine, no queue);
// admitted requests get a slot in the in-flight bound and a request
// goroutine. With a QoS plane configured, the tenant's token bucket and
// concurrency share are checked first — a tenant over its own quota is
// rejected before it can contend for the shared in-flight bound.
func (c *sconn) dispatch(t task) {
	s := c.srv
	req := t.req

	if opTable[req.op].inline {
		var resp *response
		if s.isDraining() {
			resp = drainingResponse()
		} else {
			ctx, cancel := s.requestContext(req)
			resp = s.execute(ctx, req)
			cancel()
		}
		c.reply(&t, resp, obs.SpanID{})
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		c.reply(&t, drainingResponse(), obs.SpanID{})
		return
	}
	if s.cfg.qos != nil {
		var qerr error
		t.release, qerr = s.cfg.qos.Admit(req.tenant, t.start)
		if qerr != nil {
			s.mu.Unlock()
			c.reply(&t, failure(qerr), obs.SpanID{})
			return
		}
	}
	select {
	case s.inflight <- struct{}{}:
	default:
		s.mu.Unlock()
		if t.release != nil {
			t.release(0)
		}
		c.reply(&t, &response{code: CodeOverloaded, msg: "in-flight limit reached"}, obs.SpanID{})
		return
	}
	s.reqWG.Add(1)
	c.pending.Add(1)
	s.mu.Unlock()
	s.met.inflight.Add(1)

	s.startRequest(t)
}

// startRequest hands an admitted request to an idle request goroutine,
// or starts one while fewer than the in-flight bound exist. Request
// goroutines serve any connection's requests and live until the base
// context ends, so a request costs neither a goroutine start nor the
// growth of a fresh stack.
func (s *Server) startRequest(t task) {
	select {
	case s.tasks <- t:
		return
	default:
	}
	if s.reqGoroutines.Add(1) <= int64(cap(s.inflight)) {
		s.loopWG.Add(1)
		go s.requestLoop(t)
		return
	}
	s.reqGoroutines.Add(-1)
	// Every request goroutine exists, and t holds one of the in-flight
	// slots, so at least one of them has given its slot back and is on
	// its way to idle — unless the base context has ended and they are
	// exiting, when t gets a goroutine of its own.
	select {
	case s.tasks <- t:
	case <-s.baseCtx.Done():
		go t.c.serve(t)
	}
}

// requestLoop is one request goroutine: it serves t, then every request
// handed to it, until the base context ends.
func (s *Server) requestLoop(t task) {
	defer s.loopWG.Done()
	defer s.reqGoroutines.Add(-1)
	for {
		t.c.serve(t)
		t = task{} // hold no connection or request while idle
		select {
		case t = <-s.tasks:
		case <-s.baseCtx.Done():
			return
		}
	}
}

// drainingResponse answers every request that arrives once a graceful
// shutdown has begun.
func drainingResponse() *response {
	return &response{code: CodeDraining, msg: "server draining"}
}

// reply records a finished request — metrics, and the span when
// sampled — writes its response, and recycles its frame. A forwarding
// server's frames are not recycled: its Forwarder may still read a
// request's body after the answer (a hedged race's losing copy).
func (c *sconn) reply(t *task, resp *response, spanID obs.SpanID) {
	s := c.srv
	req := t.req
	elapsed := time.Since(t.start)
	s.met.finish(req.op, resp.code, elapsed)
	s.observeRequest(req, spanID, resp.code, t.start, elapsed)
	resp.id = req.id
	c.write(req.op, resp)
	if s.fwd == nil {
		putFrame(t.frame)
	}
}

// requestContext derives a request's execution context from the
// server's base context and the wire deadline.
func (s *Server) requestContext(req *request) (context.Context, context.CancelFunc) {
	if req.deadline.IsZero() {
		return s.baseCtx, func() {}
	}
	return context.WithDeadline(s.baseCtx, req.deadline)
}

// serve executes one admitted request — on the engine, or handed to
// the Forwarder — and writes its response. t.release, when non-nil,
// returns the request's QoS concurrency-share slot and records its
// per-tenant latency.
func (c *sconn) serve(t task) {
	s := c.srv
	req := t.req
	defer func() {
		<-s.inflight
		s.met.inflight.Add(-1)
		c.pending.Done()
		s.reqWG.Done()
	}()

	ctx, cancel := s.requestContext(req)
	defer cancel()
	if req.tenant != "" || req.class != 0 {
		// Carry the wire identity down: the engine's lane scheduler and
		// the balancer's outbound attempts read it off the context.
		ctx = qos.WithIdentity(ctx, qos.Identity{Tenant: req.tenant, Class: req.class})
	}
	var spanID obs.SpanID
	if req.tc.Sampled {
		// Open the server span and re-parent the context's trace under
		// it, so the execution's spans (engine jobs locally, route
		// attempts in the balancer) become its children.
		spanID = obs.NewSpanID()
		ctx = obs.ContextWithTrace(ctx, req.tc.Child(spanID))
	}
	resp := s.execute(ctx, req)
	if t.release != nil {
		t.release(time.Since(t.start))
	}
	c.reply(&t, resp, spanID)
}

// observeRequest records the server span for a sampled request;
// untraced requests return on the first branch. A zero spanID
// (inline drain/overload rejections, which never opened an execution
// context) gets one minted here so the rejection still shows in the
// trace tree.
func (s *Server) observeRequest(req *request, spanID obs.SpanID, code Code,
	start time.Time, elapsed time.Duration) {
	if !req.tc.Sampled || s.cfg.tracer == nil {
		return
	}
	if spanID.IsZero() {
		spanID = obs.NewSpanID()
	}
	span := obs.Span{
		Name: "server/" + req.op.String(), Track: "server",
		Outcome: code.String(), Start: start, Exec: elapsed,
		TraceID: req.tc.TraceID, SpanID: spanID, Parent: req.tc.SpanID,
	}
	if req.tenant != "" {
		span.Attrs = []obs.Attr{
			{Key: "tenant", Val: req.tenant},
			{Key: "class", Val: req.class.String()},
		}
	}
	if len(req.jobs) > 0 && req.jobs[0].n != nil {
		span.Bits = req.jobs[0].n.BitLen()
	}
	if opTable[req.op].values == perItem {
		span.Batch = req.items()
	}
	s.cfg.tracer.Record(span)
}

// execute answers a request from its op row: a forwarding server hands
// every op but the inline ones to its Forwarder, and otherwise the
// row's serve function runs. The wire deadline is already on ctx; the
// engine calls additionally fold it into per-job deadline fields so
// queued jobs expire on time.
func (s *Server) execute(ctx context.Context, req *request) *response {
	desc := &opTable[req.op]
	if s.fwd != nil && !desc.inline {
		return s.forward(ctx, req)
	}
	return desc.serve(s, ctx, req)
}

// unsupported answers an op this server has no surface for: the
// membership ops on an engine server.
func unsupported(op Op) *response {
	return &response{code: CodeProtocol, msg: fmt.Sprintf("op %s unsupported by this server", op)}
}

// failure answers a failed call with the error's wire code.
func failure(err error) *response {
	return &response{code: CodeOf(err), msg: err.Error()}
}

// result answers a call with one OK value, or its error.
func result(v *big.Int, err error) *response {
	if err != nil {
		return failure(err)
	}
	resp := &response{code: CodeOK}
	resp.one[0] = v
	resp.values = resp.one[:]
	return resp
}

// perItemResult answers a batch call: n item results for want items,
// item(i) yielding item i's value or error. A call error, or an answer
// that does not cover every item, fails the whole batch.
func perItemResult(n, want int, err error, item func(i int) (*big.Int, error)) *response {
	if err == nil && n != want {
		err = fmt.Errorf("server: answered %d of %d items: %w", n, want, errs.ErrProtocol)
	}
	if err != nil {
		return failure(err)
	}
	resp := &response{
		code:   CodeOK,
		codes:  make([]Code, n),
		msgs:   make([]string, n),
		values: make([]*big.Int, n),
	}
	for i := range resp.codes {
		v, err := item(i)
		resp.codes[i] = CodeOf(err)
		if err != nil {
			resp.msgs[i] = err.Error()
		} else {
			resp.values[i] = v
		}
	}
	return resp
}

// Engine calls of the compute rows. ctxDeadline stamps the wire
// deadline on each job, so the engine expires it even while it waits
// in queue.

func ctxDeadline(ctx context.Context) time.Time {
	dl, _ := ctx.Deadline()
	return dl
}

func (s *Server) mont(ctx context.Context, req *request) *response {
	j := req.jobs[0]
	res, err := s.eng.MontBatch(ctx, []engine.MontJob{{N: j.n, X: j.a, Y: j.b, Deadline: ctxDeadline(ctx)}})
	if err != nil {
		return failure(err)
	}
	return result(res[0].Value, res[0].Err)
}

func (s *Server) modExp(ctx context.Context, req *request) *response {
	j := req.jobs[0]
	res, err := s.eng.ModExpBatch(ctx, []engine.ModExpJob{{N: j.n, Base: j.a, Exp: j.b, Deadline: ctxDeadline(ctx)}})
	if err != nil {
		return failure(err)
	}
	return result(res[0].Value, res[0].Err)
}

func (s *Server) batchModExp(ctx context.Context, req *request) *response {
	dl := ctxDeadline(ctx)
	jobs := make([]engine.ModExpJob, len(req.jobs))
	for i, j := range req.jobs {
		jobs[i] = engine.ModExpJob{N: j.n, Base: j.a, Exp: j.b, Deadline: dl}
	}
	res, err := s.eng.ModExpBatch(ctx, jobs)
	if len(res) == len(jobs) {
		// Every item is answered (possibly with its own error); let the
		// per-item codes carry the story rather than failing the batch.
		err = nil
	}
	return perItemResult(len(res), len(jobs), err, func(i int) (*big.Int, error) {
		return res[i].Value, res[i].Err
	})
}

// ping's value is the server's in-flight count, a cheap load signal for
// balancers.
func (s *Server) ping(context.Context, *request) *response {
	return result(big.NewInt(s.met.inflight.Value()), nil)
}

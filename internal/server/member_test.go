package server

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"math/big"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/errs"
)

// TestMemberRequestGoldenFrames freezes the membership ops' wire bytes:
// the op values and body layout are a network ABI, so a refactor that
// changes any byte here is a protocol break, not a cleanup.
func TestMemberRequestGoldenFrames(t *testing.T) {
	cases := []struct {
		name string
		req  *request
		want string // hex of the encoded payload
	}{
		{
			name: "join",
			req: &request{op: OpJoin, id: 7,
				member: &memberBody{addr: "b1:9", zone: "eu"}},
			// version ‖ op=18 ‖ id ‖ deadline=0 ‖ len("b1:9") ‖ "b1:9" ‖ len("eu") ‖ "eu"
			want: "0112" + "0000000000000007" + "0000000000000000" +
				"00000004" + hex.EncodeToString([]byte("b1:9")) +
				"00000002" + hex.EncodeToString([]byte("eu")),
		},
		{
			name: "goodbye",
			req: &request{op: OpGoodbye, id: 8,
				member: &memberBody{addr: "b1:9"}},
			want: "0113" + "0000000000000008" + "0000000000000000" +
				"00000004" + hex.EncodeToString([]byte("b1:9")),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := encodeRequest(tc.req)
			want, err := hex.DecodeString(tc.want)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("frame bytes drifted:\n got %x\nwant %x", got, want)
			}
			back, err := decodeRequest(got)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if back.op != tc.req.op || back.id != tc.req.id ||
				back.member.addr != tc.req.member.addr || back.member.zone != tc.req.member.zone {
				t.Fatalf("round trip drifted: %+v vs %+v", back, tc.req)
			}
		})
	}
}

// TestMemberDecodeRejectsBadFields checks the field caps: empty or
// oversize addr/zone answer ErrProtocol instead of growing the member
// table from a hostile frame.
func TestMemberDecodeRejectsBadFields(t *testing.T) {
	long := strings.Repeat("x", maxMemberField+1)
	cases := []struct {
		name string
		req  *request
	}{
		{"empty addr", &request{op: OpJoin, id: 1, member: &memberBody{addr: "", zone: "z"}}},
		{"long addr", &request{op: OpJoin, id: 1, member: &memberBody{addr: long}}},
		{"long zone", &request{op: OpJoin, id: 1, member: &memberBody{addr: "a:1", zone: long}}},
		{"long goodbye addr", &request{op: OpGoodbye, id: 1, member: &memberBody{addr: long}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := decodeRequest(encodeRequest(tc.req)); !errors.Is(err, errs.ErrProtocol) {
				t.Fatalf("err = %v, want ErrProtocol", err)
			}
		})
	}
}

// TestMemberOpsAreControlPlane pins the control-plane exemptions in
// the op table: membership ops take no QoS tag, have no traced variant
// and are answered inline (no admission slot), so a forwarding server
// runs them itself instead of forwarding them. Ping shares all three
// exemptions. (Every op's
// ambiguous-drop retry, which registrars rely on, is pinned by
// TestClientRedialsAfterAmbiguousDrop.)
func TestMemberOpsAreControlPlane(t *testing.T) {
	for _, op := range []Op{OpJoin, OpGoodbye, OpPing} {
		d := opTable[op]
		if d.tagged {
			t.Errorf("%s takes a QoS tag; control-plane ops must not", op)
		}
		if d.traced != 0 {
			t.Errorf("%s has traced variant %d; control-plane ops must not", op, d.traced)
		}
		if !d.inline {
			t.Errorf("%s goes through admission; control-plane ops answer inline", op)
		}
		if w := wireOps[op+OpQoSOffset]; w.base != 0 {
			t.Errorf("tagged %s byte %d decodes as %+v", op, op+OpQoSOffset, w)
		}
	}
	c := Dial("unused:0")
	if _, traced := c.traceContext(context.Background(), OpJoin); traced {
		t.Error("join resolved a trace context; control-plane ops must not")
	}
}

// TestJoinUnsupportedAnswersProtocol: montsysd's engine server has no
// membership surface, so a Join against it must answer ErrProtocol —
// not hang, not misparse.
func TestJoinUnsupportedAnswersProtocol(t *testing.T) {
	_, _, addr := startServer(t, []engine.Option{engine.WithWorkers(1)}, nil)
	cl := Dial(addr)
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := cl.Join(ctx, "b1:9", "eu"); !errors.Is(err, errs.ErrProtocol) {
		t.Fatalf("Join on engine server: err = %v, want ErrProtocol", err)
	}
	if _, err := cl.Goodbye(ctx, "b1:9"); !errors.Is(err, errs.ErrProtocol) {
		t.Fatalf("Goodbye on engine server: err = %v, want ErrProtocol", err)
	}
}

// memberStubForwarder is a Forwarder with an in-memory member set,
// standing in for the balancer. Every forwarded request answers
// backend-down; when fwdStarted and fwdRelease are set, Forward
// signals admission and blocks first — a way for tests to hold a
// drain open.
type memberStubForwarder struct {
	mu      sync.Mutex
	members map[string]string
	joinErr error

	fwdStarted chan struct{}
	fwdRelease chan struct{}
}

func (h *memberStubForwarder) Forward(ctx context.Context, r Routed) (*Reply, error) {
	if h.fwdStarted != nil {
		close(h.fwdStarted)
		<-h.fwdRelease
	}
	return nil, fmt.Errorf("stub: %w", errs.ErrBackendDown)
}
func (h *memberStubForwarder) Join(ctx context.Context, addr, zone string) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.joinErr != nil {
		return 0, h.joinErr
	}
	if h.members == nil {
		h.members = make(map[string]string)
	}
	h.members[addr] = zone
	return len(h.members), nil
}
func (h *memberStubForwarder) Goodbye(ctx context.Context, addr string) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.members, addr)
	return len(h.members), nil
}

// TestJoinGoodbyeOverWire exercises the full wire path against a
// forwarding server: join twice (idempotent), goodbye, counts
// come back through the standard single-value response body.
func TestJoinGoodbyeOverWire(t *testing.T) {
	h := &memberStubForwarder{}
	srv, err := NewForwardingServer(h)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	cl := Dial(ln.Addr().String())
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	if n, err := cl.Join(ctx, "b1:9", "eu"); err != nil || n != 1 {
		t.Fatalf("Join #1 = (%d, %v), want (1, nil)", n, err)
	}
	if n, err := cl.Join(ctx, "b2:9", "us"); err != nil || n != 2 {
		t.Fatalf("Join #2 = (%d, %v), want (2, nil)", n, err)
	}
	if n, err := cl.Join(ctx, "b1:9", "eu"); err != nil || n != 2 {
		t.Fatalf("idempotent re-Join = (%d, %v), want (2, nil)", n, err)
	}
	if n, err := cl.Goodbye(ctx, "b1:9"); err != nil || n != 1 {
		t.Fatalf("Goodbye = (%d, %v), want (1, nil)", n, err)
	}
	if n, err := cl.Goodbye(ctx, "absent:1"); err != nil || n != 1 {
		t.Fatalf("idempotent Goodbye = (%d, %v), want (1, nil)", n, err)
	}

	// Forwarder errors map through the standard code table.
	h.mu.Lock()
	h.joinErr = fmt.Errorf("member table full: %w", errs.ErrOverloaded)
	h.mu.Unlock()
	// Overloaded is transient to the retry loop; cap retries via context.
	short, scancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer scancel()
	if _, err := cl.Join(short, "b3:9", ""); !errors.Is(err, errs.ErrOverloaded) &&
		!errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Join with full table: err = %v, want ErrOverloaded", err)
	}
}

// TestMemberOpsDrainingAnswered: a draining server answers membership
// ops with CodeDraining inline — the registrar moves on to the next
// balancer instead of timing out. A blocked forwarded Mont holds the
// drain's phase 1 open so the connection survives long enough to
// observe it.
func TestMemberOpsDrainingAnswered(t *testing.T) {
	h := &memberStubForwarder{
		fwdStarted: make(chan struct{}),
		fwdRelease: make(chan struct{}),
	}
	srv, err := NewForwardingServer(h)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	cl := Dial(ln.Addr().String(), WithMaxRetries(0), WithPoolSize(1))
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	montDone := make(chan struct{})
	go func() {
		defer close(montDone)
		cl.Mont(ctx, big.NewInt(7), big.NewInt(1), big.NewInt(1))
	}()
	<-h.fwdStarted // Mont admitted: drain phase 1 will block on it

	drainDone := make(chan struct{})
	go func() { defer close(drainDone); srv.Shutdown(context.Background()) }()
	waitDraining(t, srv)
	if _, err := cl.Join(ctx, "b2:9", ""); !errors.Is(err, errs.ErrDraining) {
		t.Fatalf("Join while draining: err = %v, want ErrDraining", err)
	}
	close(h.fwdRelease)
	<-montDone
	<-drainDone
}

// waitDraining blocks until the server reports draining.
func waitDraining(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !srv.isDraining() {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}
}

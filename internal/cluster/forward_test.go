package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/cryptosvc"
	"repro/internal/engine"
	"repro/internal/errs"
	"repro/internal/rsa"
	"repro/internal/server"
)

// wireBody hand-encodes a request body the way the op table's codecs
// do: uint32 fields as themselves, big.Ints as uint32 length ‖
// big-endian magnitude.
func wireBody(fields ...any) []byte {
	var b []byte
	for _, f := range fields {
		switch v := f.(type) {
		case uint32:
			b = binary.BigEndian.AppendUint32(b, v)
		case byte:
			b = append(b, v)
		case *big.Int:
			raw := v.Bytes()
			b = binary.BigEndian.AppendUint32(b, uint32(len(raw)))
			b = append(b, raw...)
		default:
			panic(fmt.Sprintf("wireBody: %T", f))
		}
	}
	return b
}

// render flattens a typed call's outcome to one comparable string.
func render(v any, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	switch r := v.(type) {
	case []engine.ModExpResult:
		var parts []string
		for _, it := range r {
			parts = append(parts, render(it.Value, it.Err))
		}
		return strings.Join(parts, " | ")
	case []cryptosvc.VerifyResult:
		var parts []string
		for _, it := range r {
			parts = append(parts, render(it.OK, it.Err))
		}
		return strings.Join(parts, " | ")
	}
	return fmt.Sprint(v)
}

// TestBalancerAnswersVerbatim: a backend's answers — OK values and
// application errors alike — reach a client through the balancer
// exactly as they reach it directly. The typed calls see the same
// values and the same error text (a balancer that decoded the error
// and re-encoded its text wrapped "montsys: remote:" around it twice),
// and the raw answers are byte-identical.
func TestBalancerAnswersVerbatim(t *testing.T) {
	_, _, addr := startBackend(t, signingBackendOpts(), nil)
	c, err := New([]string{addr}, WithProbeInterval(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	lb := front(t, c)
	direct := server.Dial(addr, server.WithMaxRetries(0))
	defer direct.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	n := testModulus(t, 256)
	even := new(big.Int).Lsh(n, 1)
	three, f4 := big.NewInt(3), big.NewInt(65537)
	key, err := direct.KeygenRSA(ctx, 256, 5)
	if err != nil {
		t.Fatal(err)
	}
	badKey := *key
	badKey.N = new(big.Int).Add(key.N, big.NewInt(2)) // N ≠ P·Q
	keyBody := func(k *rsa.PrivateKey, digest *big.Int) []byte {
		return wireBody(k.N, k.E, k.D, k.P, k.Q, k.DP, k.DQ, k.QInv, digest)
	}
	offCurve := cryptosvc.ECDSAVerifyItem{Qx: big.NewInt(1), Qy: big.NewInt(1),
		R: big.NewInt(1), S: big.NewInt(1), Digest: big.NewInt(1)}

	cases := []struct {
		name  string
		want  error // what the direct answer must classify as (nil: OK)
		typed func(*server.Client) string
		op    server.Op
		body  []byte
	}{
		{"modexp ok", nil,
			func(cl *server.Client) string { return render(cl.ModExp(ctx, n, three, f4)) },
			server.OpModExp, wireBody(n, three, f4)},
		{"modexp even modulus", errs.ErrEvenModulus,
			func(cl *server.Client) string { return render(cl.ModExp(ctx, even, three, f4)) },
			server.OpModExp, wireBody(even, three, f4)},
		{"modexp operand range", errs.ErrOperandRange,
			func(cl *server.Client) string { return render(cl.ModExp(ctx, n, n, big.NewInt(0))) },
			server.OpModExp, wireBody(n, n, big.NewInt(0))},
		{"sign_rsa bad key", errs.ErrBadKey,
			func(cl *server.Client) string { return render(cl.SignRSA(ctx, &badKey, three)) },
			server.OpSignRSA, keyBody(&badKey, three)},
		{"batch_modexp one bad item", nil,
			func(cl *server.Client) string {
				return render(cl.ModExpBatch(ctx, []engine.ModExpJob{
					{N: n, Base: three, Exp: f4}, {N: even, Base: three, Exp: f4}}))
			},
			server.OpBatchModExp, wireBody(uint32(2), n, three, f4, even, three, f4)},
		{"verify_ecdsa_batch off-curve item", nil,
			func(cl *server.Client) string {
				return render(cl.VerifyECDSABatch(ctx, cryptosvc.CurveP256,
					[]cryptosvc.ECDSAVerifyItem{offCurve}))
			},
			server.OpVerifyECDSABatch, wireBody(byte(cryptosvc.CurveP256), uint32(1),
				offCurve.Qx, offCurve.Qy, offCurve.R, offCurve.S, offCurve.Digest)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.typed(direct)
			if got := tc.typed(lb); got != want {
				t.Errorf("typed answer through the balancer differs:\n got  %s\n want %s", got, want)
			}
			dRep, dErr := direct.Forward(ctx, tc.op, tc.body)
			if dRep == nil || !errors.Is(dErr, tc.want) {
				t.Fatalf("direct answer = %+v, %v; want a reply classified %v", dRep, dErr, tc.want)
			}
			rep, err := lb.Forward(ctx, tc.op, tc.body)
			if rep == nil {
				t.Fatalf("no reply through the balancer: %v", err)
			}
			if rep.Code != dRep.Code || string(rep.Body) != string(dRep.Body) {
				t.Errorf("raw answer through the balancer differs:\n got  %d %x\n want %d %x",
					rep.Code, rep.Body, dRep.Code, dRep.Body)
			}
		})
	}
}

// stubBackend serves the wire protocol on loopback with every
// forwarded request answered by the error err — a backend answering a
// fixed failure code.
type stubBackend struct{ err error }

func (s stubBackend) Forward(context.Context, server.Routed) (*server.Reply, error) {
	return nil, s.err
}
func (stubBackend) Join(context.Context, string, string) (int, error) { return 0, nil }
func (stubBackend) Goodbye(context.Context, string) (int, error)      { return 0, nil }

func startStubBackend(t *testing.T, err error) string {
	t.Helper()
	srv, serr := server.NewForwardingServer(stubBackend{err})
	if serr != nil {
		t.Fatal(serr)
	}
	ln, lerr := net.Listen("tcp", "127.0.0.1:0")
	if lerr != nil {
		t.Fatal(lerr)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// TestBalancerOwnAnswersKeepCodes: the answers the balancer makes
// itself — no backend in rotation, retry budget denied, transport
// failure after failover — keep their codes.
func TestBalancerOwnAnswersKeepCodes(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	n := big.NewInt(0xF1)
	modexp := func(c *Cluster) error {
		_, err := front(t, c).ModExp(ctx, n, big.NewInt(2), big.NewInt(3))
		return err
	}

	// No backend in rotation.
	_, _, addr := startBackend(t, []engine.Option{engine.WithWorkers(1)}, nil)
	c, err := New([]string{addr}, WithProbeInterval(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.eject(c.pool.Load().backends[0])
	if err := modexp(c); !errors.Is(err, errs.ErrBackendDown) {
		t.Errorf("no backend in rotation: err = %v, want ErrBackendDown", err)
	}

	// Every backend overloaded: the budget's one token funds the first
	// failover and denies the second.
	over := fmt.Errorf("stub: %w", errs.ErrOverloaded)
	c2, err := New([]string{startStubBackend(t, over), startStubBackend(t, over),
		startStubBackend(t, over)},
		WithProbeInterval(time.Hour), WithRetryBudget(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := modexp(c2); !errors.Is(err, errs.ErrOverloaded) {
		t.Errorf("budget denied: err = %v, want ErrOverloaded", err)
	}
	if c2.met.budgetDenied.Value() == 0 {
		t.Error("the overload failover was not denied by the budget")
	}

	// Every backend unreachable.
	c3, err := New([]string{deadAddr(t), deadAddr(t)}, WithProbeInterval(time.Hour),
		WithClientOptions(server.WithDialTimeout(time.Second)))
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if err := modexp(c3); !errors.Is(err, errs.ErrBackendDown) {
		t.Errorf("transport failure after failover: err = %v, want ErrBackendDown", err)
	}
	if c3.met.failovers.Value() == 0 {
		t.Error("the unreachable primary did not fail over")
	}
}

// TestForwardCountsOnlyRealFailovers calls Forward directly, so no
// client retry sits between the balancer's attempts. A failover is
// counted, and an overload failover funded, only when another backend
// is left to take the request: two dead backends read one failover,
// and a lone overloaded backend leaves the retry budget untouched.
func TestForwardCountsOnlyRealFailovers(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	n := big.NewInt(0xF1)
	req := server.Routed{Op: server.OpModExp, Key: n.Bytes(),
		Body: wireBody(n, big.NewInt(2), big.NewInt(3))}

	dead, err := New([]string{deadAddr(t), deadAddr(t)}, WithProbeInterval(time.Hour),
		WithHedging(false), WithClientOptions(server.WithDialTimeout(time.Second)))
	if err != nil {
		t.Fatal(err)
	}
	defer dead.Close()
	if _, err := dead.Forward(ctx, req); !errors.Is(err, errs.ErrBackendDown) {
		t.Errorf("two dead backends: err = %v, want ErrBackendDown", err)
	}
	if got := dead.met.failovers.Value(); got != 1 {
		t.Errorf("two dead backends: failovers_total = %d, want 1", got)
	}

	over, err := New([]string{startStubBackend(t, fmt.Errorf("stub: %w", errs.ErrOverloaded))},
		WithProbeInterval(time.Hour), WithHedging(false))
	if err != nil {
		t.Fatal(err)
	}
	defer over.Close()
	full := over.budget.tokens.Load()
	if _, err := over.Forward(ctx, req); !errors.Is(err, errs.ErrOverloaded) {
		t.Errorf("one overloaded backend: err = %v, want ErrOverloaded", err)
	}
	if got := over.budget.tokens.Load(); got != full {
		t.Errorf("one overloaded backend: budget %d millitokens, want untouched %d", got, full)
	}
	if got := over.met.budgetDenied.Value(); got != 0 {
		t.Errorf("one overloaded backend: budget denials = %d, want 0", got)
	}
	if got := over.met.failovers.Value(); got != 0 {
		t.Errorf("one overloaded backend: failovers_total = %d, want 0", got)
	}
}

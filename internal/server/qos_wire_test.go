package server

// Wire, client, and admission tests for the QoS extension. The golden
// frames here extend TestLegacyFramesByteIdentical to the tagged op
// space and the rate-limited code: if any of them needs regenerating,
// the appended ABI broke its own freeze.

import (
	"context"
	"encoding/hex"
	"errors"
	"math/big"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/errs"
	"repro/internal/kits"
	"repro/internal/obs"
	"repro/internal/qos"
)

// stripSpaces joins the readable golden groups into one hex string.
func stripSpaces(s string) string { return strings.ReplaceAll(s, " ", "") }

// TestQoSFramesByteIdentical pins the exact bytes of tenant-tagged
// frames and the rate-limited response.
func TestQoSFramesByteIdentical(t *testing.T) {
	// Tagged modexp: op 2+64=66, QoS block (class, tenant) between
	// deadline and body.
	got := hex.EncodeToString(encodeRequest(&request{
		op: OpModExp, id: 5, tenant: "acme", class: qos.Batch,
		jobs: []triple{{n: big.NewInt(0xF1), a: big.NewInt(2), b: big.NewInt(10)}},
	}))
	want := stripSpaces("0142 0000000000000005 0000000000000000 01 00000004 61636d65 00000001f1 0000000102 000000010a")
	if got != want {
		t.Errorf("tagged modexp bytes changed:\n got  %s\n want %s", got, want)
	}

	// Tagging composes with tracing: traced modexp 6 + 64 = 70, QoS
	// block first, then the trace block.
	tcx := obs.TraceContext{Sampled: true}
	tcx.TraceID[0], tcx.SpanID[0] = 0xAA, 0xBB
	got = hex.EncodeToString(encodeRequest(&request{
		op: OpModExp, id: 9, tenant: "bulk", class: qos.BestEffort, tc: tcx,
		jobs: []triple{{n: big.NewInt(0xF1), a: big.NewInt(2), b: big.NewInt(3)}},
	}))
	want = stripSpaces("0146 0000000000000009 0000000000000000 02 00000004 62756c6b" +
		" aa000000000000000000000000000000 bb00000000000000 01" +
		" 00000001f1 0000000102 0000000103")
	if got != want {
		t.Errorf("tagged traced modexp bytes changed:\n got  %s\n want %s", got, want)
	}

	// An identity-free request encodes the untagged legacy frame — the
	// tag is strictly additive, old servers never see it unasked.
	got = hex.EncodeToString(encodeRequest(&request{
		op: OpModExp, id: 7, jobs: []triple{{n: big.NewInt(0xF1), a: big.NewInt(2), b: big.NewInt(10)}},
	}))
	want = stripSpaces("0102 0000000000000007 0000000000000000 00000001f1 0000000102 000000010a")
	if got != want {
		t.Errorf("untagged modexp bytes changed:\n got  %s\n want %s", got, want)
	}

	// Ping is never tagged, identity or not.
	got = hex.EncodeToString(encodeRequest(&request{op: OpPing, id: 3, tenant: "acme", class: qos.Batch}))
	want = stripSpaces("0104 0000000000000003 0000000000000000")
	if got != want {
		t.Errorf("ping bytes changed under identity:\n got  %s\n want %s", got, want)
	}

	// The rate-limited response: code 13, message in the fixed
	// retry-after grammar. The grammar itself is part of the ABI — the
	// client reparses it into the structured error.
	msg := (&errs.RateLimited{Tenant: "acme", RetryAfter: 25 * time.Millisecond}).Error()
	if msg != `tenant "acme" rate limited: retry after 25ms` {
		t.Errorf("rate-limited message grammar changed: %q", msg)
	}
	got = hex.EncodeToString(encodeResponse(OpModExp, &response{id: 7, code: CodeRateLimited, msg: msg}))
	want = "01" + "0000000000000007" + "0d" + "0000002c" + hex.EncodeToString([]byte(msg))
	if got != want {
		t.Errorf("rate-limited response bytes changed:\n got  %s\n want %s", got, want)
	}
}

// TestQoSTaggedRoundTrip: identity survives encode/decode on plain,
// traced, and batch ops, and the decoded op is normalized to its base
// so dispatch and metric labels never see tagged values.
func TestQoSTaggedRoundTrip(t *testing.T) {
	cases := []*request{
		{op: OpModExp, id: 1, tenant: "acme", class: qos.Interactive,
			jobs: []triple{{n: big.NewInt(0xF1), a: big.NewInt(2), b: big.NewInt(3)}}},
		{op: OpBatchModExp, id: 2, tenant: "hog", class: qos.Batch,
			jobs: []triple{{n: big.NewInt(0xF1), a: big.NewInt(2), b: big.NewInt(3)},
				{n: big.NewInt(0xF1), a: big.NewInt(5), b: big.NewInt(7)}}},
		{op: OpMont, id: 3, tenant: "bulk", class: qos.BestEffort,
			jobs: []triple{{n: big.NewInt(0xF1), a: big.NewInt(3), b: big.NewInt(4)}}},
	}
	tcx := obs.TraceContext{Sampled: true}
	tcx.TraceID[5], tcx.SpanID[2] = 0x11, 0x22
	traced := &request{op: OpModExp, id: 4, tenant: "acme", class: qos.Batch, tc: tcx,
		jobs: []triple{{n: big.NewInt(0xF1), a: big.NewInt(2), b: big.NewInt(3)}}}
	cases = append(cases, traced)

	for _, req := range cases {
		got, err := decodeRequest(encodeRequest(req))
		if err != nil {
			t.Fatalf("op %d: %v", req.op, err)
		}
		if got.op != req.op {
			t.Errorf("op %d: decoded op %d not normalized to base", req.op, got.op)
		}
		if got.tenant != req.tenant || got.class != req.class {
			t.Errorf("op %d: identity (%q,%v) round-tripped as (%q,%v)",
				req.op, req.tenant, req.class, got.tenant, got.class)
		}
		if got.tc.Sampled != req.tc.Sampled || got.tc.TraceID != req.tc.TraceID {
			t.Errorf("op %d: trace context lost under tagging", req.op)
		}
		if len(got.jobs) != len(req.jobs) {
			t.Errorf("op %d: %d jobs round-tripped as %d", req.op, len(req.jobs), len(got.jobs))
		}
	}
}

// TestQoSBlockLimits: a hostile tenant name is rejected as a protocol
// error, and a class byte from a newer peer degrades to best-effort —
// an unknown class cannot be more urgent than the known ones.
func TestQoSBlockLimits(t *testing.T) {
	long := &request{op: OpModExp, id: 1, tenant: strings.Repeat("x", maxTenantLen+1),
		class: qos.Batch, jobs: []triple{{n: big.NewInt(0xF1), a: big.NewInt(2), b: big.NewInt(3)}}}
	if _, err := decodeRequest(encodeRequest(long)); !errors.Is(err, errs.ErrProtocol) {
		t.Fatalf("oversized tenant: err=%v, want ErrProtocol", err)
	}

	// Patch the class byte (right after ver+op+id+deadline) to an
	// unknown value.
	b := encodeRequest(&request{op: OpModExp, id: 1, tenant: "t", class: qos.Batch,
		jobs: []triple{{n: big.NewInt(0xF1), a: big.NewInt(2), b: big.NewInt(3)}}})
	b[1+1+8+8] = 7
	got, err := decodeRequest(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.class != qos.BestEffort {
		t.Fatalf("unknown class byte decoded as %v, want BestEffort", got.class)
	}
}

// TestRateLimitedCodeMapping: the sentinel maps to code 13 and back,
// and the reconstructed client-side error exposes the retry-after hint
// through errors.As — across the hop, not just in process.
func TestRateLimitedCodeMapping(t *testing.T) {
	src := &errs.RateLimited{Tenant: "acme", RetryAfter: 40 * time.Millisecond}
	if c := CodeOf(src); c != CodeRateLimited {
		t.Fatalf("CodeOf(RateLimited) = %v, want CodeRateLimited", c)
	}
	if CodeRateLimited.String() != "rate_limited" {
		t.Fatalf("CodeRateLimited.String() = %q", CodeRateLimited.String())
	}
	back := errFor(CodeRateLimited, src.Error())
	if !errors.Is(back, errs.ErrRateLimited) {
		t.Fatalf("errFor: %v does not Is(ErrRateLimited)", back)
	}
	var rl *errs.RateLimited
	if !errors.As(back, &rl) || rl.Tenant != "acme" || rl.RetryAfter != 40*time.Millisecond {
		t.Fatalf("errFor: hint lost: %+v", rl)
	}
	// A mangled message still classifies, just without the hint.
	if back := errFor(CodeRateLimited, "???"); !errors.Is(back, errs.ErrRateLimited) {
		t.Fatalf("errFor on unparsable msg: %v", back)
	}
}

// TestRetryDecisionTable is the full decision table over every wire
// code: rate limiting is the only hint-driven wait, the transient trio
// retries with backoff, everything else is terminal.
func TestRetryDecisionTable(t *testing.T) {
	want := map[Code]retryAction{
		CodeOK:              retryNo, // unreachable in the loop, but defined
		CodeEvenModulus:     retryNo,
		CodeModulusTooSmall: retryNo,
		CodeOperandRange:    retryNo,
		CodeEngineClosed:    retryNo,
		CodeOverloaded:      retryBackoff,
		CodeDraining:        retryBackoff,
		CodeProtocol:        retryNo,
		CodeDeadline:        retryNo,
		CodeCanceled:        retryNo,
		CodeBackendDown:     retryBackoff,
		CodeIntegrity:       retryNo,
		CodeBadKey:          retryNo,
		CodeRateLimited:     retryAfterHint,
		CodeInternal:        retryNo,
	}
	if len(want) != len(codeTable) {
		t.Fatalf("decision table covers %d codes, wire has %d — extend the table", len(want), len(codeTable))
	}
	for _, e := range codeTable {
		c := e.code
		w, ok := want[c]
		if !ok {
			t.Errorf("wire code %v missing from decision table", c)
			continue
		}
		if got := retryDecision(c); got != w {
			t.Errorf("retryDecision(%v) = %v, want %v", c, got, w)
		}
	}
}

// TestClientRateLimitedWaitsHint: a rate-limited response makes the
// client wait out the server's exact retry-after hint — no jitter, no
// exponential growth — and then succeed.
func TestClientRateLimitedWaitsHint(t *testing.T) {
	const hint = 80 * time.Millisecond
	addr, requests, _ := scriptedServer(t, func(i int, req *request) *response {
		if i == 0 {
			return &response{code: CodeRateLimited,
				msg: (&errs.RateLimited{Tenant: "acme", RetryAfter: hint}).Error()}
		}
		return okModExp(req)
	})
	cl := Dial(addr, WithMaxRetries(2), WithBackoff(time.Millisecond, 2*time.Millisecond))
	defer cl.Close()

	n, base, exp := big.NewInt(101), big.NewInt(7), big.NewInt(13)
	start := time.Now()
	got, err := cl.ModExp(context.Background(), n, base, exp)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if want := new(big.Int).Exp(base, exp, n); got.Cmp(want) != 0 {
		t.Fatal("wrong value after rate-limited retry")
	}
	if elapsed < hint {
		t.Fatalf("retried after %v, before the %v hint elapsed", elapsed, hint)
	}
	if r := requests.Load(); r != 2 {
		t.Fatalf("server saw %d requests, want 2", r)
	}
}

// TestClientRateLimitedGivesUpEarly: when the context deadline cannot
// cover the hint, the client returns the rate-limited error at once
// instead of burning the caller's remaining budget in a doomed wait.
func TestClientRateLimitedGivesUpEarly(t *testing.T) {
	addr, requests, _ := scriptedServer(t, func(i int, req *request) *response {
		return &response{code: CodeRateLimited,
			msg: (&errs.RateLimited{Tenant: "acme", RetryAfter: 2 * time.Second}).Error()}
	})
	cl := Dial(addr, WithMaxRetries(3), WithBackoff(time.Millisecond, 2*time.Millisecond))
	defer cl.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := cl.ModExp(ctx, big.NewInt(101), big.NewInt(7), big.NewInt(13))
	elapsed := time.Since(start)
	if !errors.Is(err, errs.ErrRateLimited) {
		t.Fatalf("err=%v, want ErrRateLimited", err)
	}
	var rl *errs.RateLimited
	if !errors.As(err, &rl) || rl.RetryAfter != 2*time.Second {
		t.Fatalf("hint lost across the wire: %+v", rl)
	}
	if elapsed > time.Second {
		t.Fatalf("waited %v on a hint the deadline could never cover", elapsed)
	}
	if r := requests.Load(); r != 1 {
		t.Fatalf("server saw %d requests, want 1 (no doomed retries)", r)
	}
}

// TestServerQoSAdmission drives a live server with a plane: the
// tenant's second back-to-back call bounces off its own bucket with a
// parseable retry-after, while an unconfigured tenant (default policy,
// unlimited) sails through — and an untagged legacy client is policed
// as the default tenant, not rejected.
func TestServerQoSAdmission(t *testing.T) {
	eng, err := engine.New(engine.WithWorkers(1), engine.WithKit(kits.CIOS))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })

	plane := qos.NewPlane(qos.Config{
		Tenants: []qos.TenantConfig{{Name: "acme", Rate: 0.5, Burst: 1, Weight: 1, Class: qos.Interactive}},
		Default: qos.TenantConfig{Name: "*", Rate: 0, Burst: 1, Weight: 1, Class: qos.Interactive},
	}, 8, nil)
	srv, err := NewServer(eng, WithQoS(plane))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})

	n, base, exp := big.NewInt(0xF1), big.NewInt(7), big.NewInt(5)
	want := new(big.Int).Exp(base, exp, n)

	acme := Dial(ln.Addr().String(), WithClientTenant("acme"), WithMaxRetries(0))
	defer acme.Close()
	got, err := acme.ModExp(context.Background(), n, base, exp)
	if err != nil {
		t.Fatalf("first acme call: %v", err)
	}
	if got.Cmp(want) != 0 {
		t.Fatal("wrong value")
	}
	_, err = acme.ModExp(context.Background(), n, base, exp)
	if !errors.Is(err, errs.ErrRateLimited) {
		t.Fatalf("second acme call: err=%v, want ErrRateLimited", err)
	}
	var rl *errs.RateLimited
	if !errors.As(err, &rl) || rl.Tenant != "acme" || rl.RetryAfter <= 0 {
		t.Fatalf("retry-after hint did not survive the wire: %+v", rl)
	}

	// The ambient-context path: identity via ContextWithQoS beats the
	// client's configured default.
	other := Dial(ln.Addr().String(), WithMaxRetries(0))
	defer other.Close()
	ctx := qos.WithIdentity(context.Background(), qos.Identity{Tenant: "zeta", Class: qos.Batch})
	if _, err := other.ModExp(ctx, n, base, exp); err != nil {
		t.Fatalf("unconfigured tenant under default policy: %v", err)
	}
	// And a plain untagged call still works (default policy, unlimited).
	if _, err := other.ModExp(context.Background(), n, base, exp); err != nil {
		t.Fatalf("untagged legacy call: %v", err)
	}
}

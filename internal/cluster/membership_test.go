package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/errs"
)

// modulusHomedOn scans odd moduli until it finds one whose HRW home
// over addrs is want.
func modulusHomedOn(t *testing.T, addrs []string, want string) *big.Int {
	t.Helper()
	for i := int64(0); i < 1_000_000; i++ {
		n := big.NewInt(1<<16 + 2*i + 1)
		key := n.Bytes()
		best, bestScore := "", uint64(0)
		for _, a := range addrs {
			if s := hrwScore(key, a); best == "" || s > bestScore {
				best, bestScore = a, s
			}
		}
		if best == want {
			return n
		}
	}
	t.Fatal("no modulus found with the required HRW home")
	return nil
}

func waitBackendUp(t *testing.T, c *Cluster, addr string, want bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, st := range c.Status() {
			if st.Addr == addr && st.Up == want {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s up=%v", addr, want)
}

// TestJoinMidFlight: a backend joined at runtime starts OUT of rotation,
// enters after its first successful probe, and then receives the
// affinity traffic HRW assigns it — while a joined-but-dead address
// stays down forever and costs the pool nothing.
func TestJoinMidFlight(t *testing.T) {
	_, _, a1 := startBackend(t, []engine.Option{engine.WithWorkers(1)}, nil)
	_, _, a2 := startBackend(t, []engine.Option{engine.WithWorkers(1)}, nil)
	c, err := New([]string{a1},
		WithHedging(false),
		WithProbeInterval(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := front(t, c)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// A dead address joins, is probed, and never comes up.
	dead := deadAddr(t)
	if n, err := c.Join(ctx, dead, ""); err != nil || n != 2 {
		t.Fatalf("Join(dead) = (%d, %v), want (2, nil)", n, err)
	}
	for _, st := range c.Status() {
		if st.Addr == dead && st.Up {
			t.Fatal("a runtime join entered rotation before proving itself")
		}
	}

	// A live backend joins and is routable after one probe RTT.
	if n, err := c.Join(ctx, a2, ""); err != nil || n != 3 {
		t.Fatalf("Join(a2) = (%d, %v), want (3, nil)", n, err)
	}
	waitBackendUp(t, c, a2, true)

	// Traffic for a modulus homed on the joined backend lands there.
	n := modulusHomedOn(t, []string{a1, a2}, a2)
	got, err := cl.ModExp(ctx, n, big.NewInt(2), big.NewInt(10))
	if err != nil {
		t.Fatalf("ModExp after join: %v", err)
	}
	if got.Cmp(wantModExp(n, big.NewInt(2), big.NewInt(10))) != 0 {
		t.Fatal("wrong result after join")
	}
	if c.met.backend(a2).picks["affinity"].Value() < 1 {
		t.Error("joined backend never received its affinity traffic")
	}
	if c.met.joins.Value() != 2 {
		t.Errorf("joins counter = %d, want 2", c.met.joins.Value())
	}
}

// TestJoinIdempotentAndBounded: re-joins are no-ops, zone changes
// relabel, the member table cap answers ErrOverloaded, and syntactically
// hostile addresses are rejected with ErrProtocol before touching the
// pool.
func TestJoinIdempotentAndBounded(t *testing.T) {
	_, _, a1 := startBackend(t, []engine.Option{engine.WithWorkers(1)}, nil)
	c, err := New([]string{a1},
		WithMaxMembers(2),
		WithProbeInterval(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	if n, err := c.Join(ctx, "127.0.0.1:19701", "eu-1"); err != nil || n != 2 {
		t.Fatalf("Join = (%d, %v)", n, err)
	}
	// Same addr+zone: idempotent no-op.
	if n, err := c.Join(ctx, "127.0.0.1:19701", "eu-1"); err != nil || n != 2 {
		t.Fatalf("re-Join = (%d, %v), want (2, nil)", n, err)
	}
	if c.met.joins.Value() != 1 {
		t.Errorf("idempotent re-join counted as a change: joins = %d", c.met.joins.Value())
	}
	// Same addr, new zone: relabel, not growth.
	if n, err := c.Join(ctx, "127.0.0.1:19701", "eu-2"); err != nil || n != 2 {
		t.Fatalf("relabel Join = (%d, %v), want (2, nil)", n, err)
	}
	ms := c.Members()
	if len(ms) != 2 || ms[1].Zone != "eu-2" {
		t.Fatalf("Members after relabel = %v", ms)
	}
	// Table full.
	if _, err := c.Join(ctx, "127.0.0.1:19702", ""); !errors.Is(err, errs.ErrOverloaded) {
		t.Fatalf("Join past cap = %v, want ErrOverloaded", err)
	}
	// Hostile fields.
	for _, bad := range []string{"", "noport", string(make([]byte, maxMemberField+1)) + ":1"} {
		if _, err := c.Join(ctx, bad, ""); !errors.Is(err, errs.ErrProtocol) {
			t.Errorf("Join(%.20q) = %v, want ErrProtocol", bad, err)
		}
	}
	// Goodbye of a non-member: idempotent.
	if n, err := c.Goodbye(ctx, "127.0.0.1:19799"); err != nil || n != 2 {
		t.Fatalf("Goodbye(non-member) = (%d, %v), want (2, nil)", n, err)
	}
	if c.met.leaves.Value() != 0 {
		t.Error("idempotent goodbye counted as a change")
	}
}

// TestGoodbyeRetiresBackend: a graceful leave retires the departed
// backend at once — client closed, probe loop exited, backend_up series
// at 0 — and its moduli move to the remaining member.
func TestGoodbyeRetiresBackend(t *testing.T) {
	_, _, a1 := startBackend(t, []engine.Option{engine.WithWorkers(1)}, nil)
	_, _, a2 := startBackend(t, []engine.Option{engine.WithWorkers(1)}, nil)
	// Fast probes: a probe loop that outlived retirement would count a
	// failed probe against the closed client every few milliseconds.
	c, err := New([]string{a1, a2},
		WithHedging(false),
		WithProbeInterval(5*time.Millisecond),
		WithReinstateBackoff(5*time.Millisecond, 5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := front(t, c)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	n := modulusHomedOn(t, []string{a1, a2}, a1)
	var departing *backend
	for _, b := range c.pool.Load().backends {
		if b.addr == a1 {
			departing = b
		}
	}

	if _, err := cl.ModExp(ctx, n, big.NewInt(2), big.NewInt(10)); err != nil {
		t.Fatal(err)
	}
	if cnt, err := c.Goodbye(ctx, a1); err != nil || cnt != 1 {
		t.Fatalf("Goodbye = (%d, %v), want (1, nil)", cnt, err)
	}
	if ms := c.Members(); len(ms) != 1 || ms[0].Addr != a2 {
		t.Fatalf("Members after goodbye = %v, want just %s", ms, a2)
	}

	bm := c.met.backend(a1)
	if v := bm.up.Value(); v != 0 || departing.up() {
		t.Errorf("departed backend_up = %d (up=%v), want 0", v, departing.up())
	}
	if _, err := departing.cl.Ping(ctx); !errors.Is(err, errs.ErrEngineClosed) {
		t.Errorf("departed backend's client still open: Ping = %v", err)
	}
	time.Sleep(100 * time.Millisecond) // let a probe that raced the goodbye finish
	before := bm.probeFailures.Value()
	time.Sleep(100 * time.Millisecond)
	if d := bm.probeFailures.Value() - before; d != 0 {
		t.Errorf("departed backend's probe loop still running: %d probes in 100ms", d)
	}
	if v := bm.up.Value(); v != 0 {
		t.Errorf("departed backend_up = %d after its probe loop exited, want 0", v)
	}

	// The moved modulus is served by its new home.
	got, err := cl.ModExp(ctx, n, big.NewInt(2), big.NewInt(12))
	if err != nil {
		t.Fatalf("ModExp after goodbye: %v", err)
	}
	if got.Cmp(wantModExp(n, big.NewInt(2), big.NewInt(12))) != 0 {
		t.Fatal("wrong result after goodbye")
	}
	if c.met.backend(a2).picks["affinity"].Value() < 1 {
		t.Error("moved modulus did not route to its new home")
	}
	if c.met.leaves.Value() != 1 {
		t.Errorf("leaves = %d, want 1", c.met.leaves.Value())
	}
}

// TestGoodbyeUnderLoad: a graceful leave in the middle of concurrent
// traffic produces zero client-visible errors and zero wrong answers —
// requests in flight on the retired backend fail over for free.
func TestGoodbyeUnderLoad(t *testing.T) {
	_, _, a1 := startBackend(t, []engine.Option{engine.WithWorkers(2)}, nil)
	_, _, a2 := startBackend(t, []engine.Option{engine.WithWorkers(2)}, nil)
	c, err := New([]string{a1, a2},
		WithHedging(false),
		WithRetryBudget(1.0, 64))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := front(t, c)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const workers, perWorker = 4, 20
	var wg sync.WaitGroup
	errc := make(chan error, workers*perWorker)
	n := testModulus(t, 192)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				base := big.NewInt(int64(w*1000 + i + 2))
				exp := big.NewInt(int64(65537 + i))
				got, err := cl.ModExp(ctx, n, base, exp)
				if err != nil {
					errc <- fmt.Errorf("worker %d req %d: %w", w, i, err)
					return
				}
				if got.Cmp(wantModExp(n, base, exp)) != 0 {
					errc <- fmt.Errorf("worker %d req %d: WRONG ANSWER", w, i)
					return
				}
				if i == perWorker/2 && w == 0 {
					if _, err := c.Goodbye(ctx, a1); err != nil {
						errc <- fmt.Errorf("goodbye: %w", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if ms := c.Members(); len(ms) != 1 || ms[0].Addr != a2 {
		t.Fatalf("Members after goodbye = %v", ms)
	}
}

// TestZonePreferenceAndBadZoneHedge exercises the zone rules directly
// against choose(): least-inflight ties go to the local zone, hedges
// never enter a zone absorbing failures, and primary routing still may
// when that zone holds the only capacity.
func TestZonePreferenceAndBadZoneHedge(t *testing.T) {
	// A dead seed keeps New() happy; routing below uses a synthetic
	// membership, never the pool.
	c, err := New([]string{deadAddr(t)},
		WithZone("z1"),
		WithAffinity(false),
		WithProbeInterval(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	mk := func(addr, zone string, up bool) *backend {
		b := c.newBackend(addr, zone, up)
		t.Cleanup(func() { b.cl.Close() })
		return b
	}
	local := mk("127.0.0.1:21001", "z1", true)
	remote := mk("127.0.0.1:21002", "z2", true)
	remote2 := mk("127.0.0.1:21003", "z2", false) // down: z2 is 1-of-2 down = bad

	// Tie on inflight: the local backend wins every rotation.
	p := &membership{backends: []*backend{remote, local}}
	for i := 0; i < 8; i++ {
		b, reason := c.choose(p, nil, map[*backend]bool{}, false)
		if b != local || reason != "least_inflight" {
			t.Fatalf("tie pick %d = (%s, %s), want local z1 least_inflight", i, b.addr, reason)
		}
	}
	// A strictly-less-loaded remote beats zone preference.
	local.inflight.Store(5)
	if b, _ := c.choose(p, nil, map[*backend]bool{}, false); b != remote {
		t.Fatalf("loaded-local pick = %s, want remote", b.addr)
	}
	local.inflight.Store(0)

	// z2 is absorbing failures: hedges skip its up member...
	pBad := &membership{backends: []*backend{remote, remote2, local}}
	if !zoneBad(pBad, "z2") {
		t.Fatal("z2 with 1 of 2 down not considered bad")
	}
	before := c.met.hedgeZoneSkips.Value()
	if b, _ := c.choose(pBad, nil, map[*backend]bool{}, true); b != local {
		t.Fatalf("hedge pick = %v, want the z1 backend", b)
	}
	if c.met.hedgeZoneSkips.Value() <= before {
		t.Error("hedge zone skip not counted")
	}
	// ...even when that leaves nothing to hedge onto...
	if b, _ := c.choose(pBad, nil, map[*backend]bool{local: true}, true); b != nil {
		t.Fatalf("hedge into a bad zone: picked %s", b.addr)
	}
	// ...while primary routing still uses it (slow beats unavailable).
	if b, _ := c.choose(pBad, nil, map[*backend]bool{local: true}, false); b != remote {
		t.Fatalf("primary pick with only bad-zone capacity = %v, want remote", b)
	}
}

// TestMemberParsing covers the -backends grammar: inline lists, zone
// labels, dedupe, comments in member files, and rejection of garbage.
func TestMemberParsing(t *testing.T) {
	ms, err := ParseMemberList(" b1:9001=eu-1, b2:9002 ,b1:9001,, ")
	if err != nil {
		t.Fatal(err)
	}
	want := []Member{{Addr: "b1:9001", Zone: "eu-1"}, {Addr: "b2:9002"}}
	if len(ms) != 2 || ms[0] != want[0] || ms[1] != want[1] {
		t.Fatalf("ParseMemberList = %v, want %v", ms, want)
	}
	for _, bad := range []string{"noport", ":", "=eu-1"} {
		if _, err := ParseMemberList(bad); err == nil {
			t.Errorf("ParseMemberList(%q) accepted", bad)
		}
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "members")
	content := "# fleet\nb1:9001=eu-1   # primary\n\n  b2:9002\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	ms, err = LoadMemberFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 || ms[0] != want[0] || ms[1] != want[1] {
		t.Fatalf("LoadMemberFile = %v, want %v", ms, want)
	}
	if _, err := LoadMemberFile(filepath.Join(dir, "absent")); err == nil {
		t.Error("LoadMemberFile(absent) accepted")
	}
}

// TestJoinAfterClose: membership ops on a closed cluster fail typed.
func TestJoinAfterClose(t *testing.T) {
	_, _, a1 := startBackend(t, []engine.Option{engine.WithWorkers(1)}, nil)
	c, err := New([]string{a1})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := c.Join(context.Background(), "127.0.0.1:19701", ""); !errors.Is(err, errs.ErrEngineClosed) {
		t.Fatalf("Join after Close = %v, want ErrEngineClosed", err)
	}
	if _, err := c.Goodbye(context.Background(), a1); !errors.Is(err, errs.ErrEngineClosed) {
		t.Fatalf("Goodbye after Close = %v, want ErrEngineClosed", err)
	}
}

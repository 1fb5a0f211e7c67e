package cluster

// Dynamic membership: the pool of backends is an immutable snapshot
// swapped atomically on every join/leave, the way the engine swaps
// mont.Ctx generations — readers never lock, writers serialize on
// memMu. A change takes effect at once: HRW affinity means most moduli
// keep their home, and a modulus that moves pays one inline context
// build on its new home — about one F4 exponentiation on the CIOS kit
// (kits.ctx_build_us.2048 in bench/). A departing backend is retired
// on the spot: out of rotation, probe loop stopped, client closed.
// This is the paper's Fig. 5 replicated-array scaling made elastic:
// arrays can be added or removed while the conveyor keeps moving.

import (
	"context"
	"fmt"
	"net"
	"os"
	"strings"

	"repro/internal/errs"
)

// maxMemberField mirrors the wire codec's cap on addr and zone fields,
// so a Join accepted here is always encodable.
const maxMemberField = 256

// membership is one immutable snapshot of the routable pool.
type membership struct {
	backends []*backend
}

// retire takes a departed backend out of rotation, stops its probe
// loop and closes its client. A request still holding an older
// snapshot then skips it. Called exactly once per backend, always
// under memMu.
func (c *Cluster) retire(b *backend) {
	b.setUp(false)
	close(b.gone)
	b.cl.Close()
}

// installLocked swaps in a new routable set under memMu and retires
// the departing backend, if any.
func (c *Cluster) installLocked(next []*backend, departing *backend) {
	c.pool.Store(&membership{backends: next})
	if departing != nil {
		c.retire(departing)
	}
	c.met.members.Set(int64(len(next)))
}

// checkMember validates a join's fields against the same caps the wire
// codec enforces, plus a syntactic address check — a balancer must not
// let one hostile frame park an unroutable string in the member table.
func checkMember(addr, zone string) error {
	if addr == "" || len(addr) > maxMemberField {
		return fmt.Errorf("cluster: member address of %d bytes outside [1, %d]: %w",
			len(addr), maxMemberField, errs.ErrProtocol)
	}
	if len(zone) > maxMemberField {
		return fmt.Errorf("cluster: member zone of %d bytes exceeds limit %d: %w",
			len(zone), maxMemberField, errs.ErrProtocol)
	}
	host, port, err := net.SplitHostPort(addr)
	if err != nil || host == "" || port == "" {
		return fmt.Errorf("cluster: member address %q is not host:port: %w",
			addr, errs.ErrProtocol)
	}
	return nil
}

// Join adds a backend to the pool at runtime, or relabels its zone if
// the address is already a member. It implements the wire protocol's
// OpJoin (a server.Forwarder method, so montsyslb's front door accepts
// self-registration). Idempotent: a re-join with
// the same zone is a no-op answering the current member count.
//
// A joined backend starts OUT of rotation and is probed immediately:
// traffic only routes to it after its first successful Ping. A hostile
// or mistaken Join of a dead address therefore costs the pool nothing
// — it sits down until it proves itself, while WithMaxMembers bounds
// how many such entries can exist at all.
func (c *Cluster) Join(ctx context.Context, addr, zone string) (int, error) {
	if err := checkMember(addr, zone); err != nil {
		return 0, err
	}
	c.memMu.Lock()
	defer c.memMu.Unlock()
	if c.closed.Load() {
		return 0, fmt.Errorf("cluster: closed: %w", errs.ErrEngineClosed)
	}
	p := c.pool.Load()

	var relabeled *backend
	next := make([]*backend, 0, len(p.backends)+1)
	for _, b := range p.backends {
		if b.addr == addr {
			if b.zone == zone {
				return len(p.backends), nil
			}
			// Zone change: the old entry departs and a fresh entry
			// joins under the new label.
			relabeled = b
			continue
		}
		next = append(next, b)
	}
	if len(next)+1 > c.cfg.maxMembers {
		return 0, fmt.Errorf("cluster: member table full (%d of %d): %w",
			len(p.backends), c.cfg.maxMembers, errs.ErrOverloaded)
	}
	nb := c.newBackend(addr, zone, false)
	next = append(next, nb)

	c.installLocked(next, relabeled)
	c.met.joins.Inc()
	c.wg.Add(1)
	go c.probeLoop(nb, 0) // immediate first probe: join latency = one RTT
	return len(next), nil
}

// Goodbye removes a backend from the pool at runtime, implementing the
// wire protocol's OpGoodbye. Idempotent: an address that is not a
// member answers the current count unchanged. The departing backend
// is retired at once; its moduli move to their next HRW home, which
// builds each context inline on first use, and requests in flight on
// it fail over for free.
func (c *Cluster) Goodbye(ctx context.Context, addr string) (int, error) {
	if err := checkMember(addr, ""); err != nil {
		return 0, err
	}
	c.memMu.Lock()
	defer c.memMu.Unlock()
	if c.closed.Load() {
		return 0, fmt.Errorf("cluster: closed: %w", errs.ErrEngineClosed)
	}
	p := c.pool.Load()

	var leaving *backend
	next := make([]*backend, 0, len(p.backends))
	for _, b := range p.backends {
		if b.addr == addr {
			leaving = b
			continue
		}
		next = append(next, b)
	}
	if leaving == nil {
		return len(p.backends), nil
	}
	c.installLocked(next, leaving)
	c.met.leaves.Inc()
	return len(next), nil
}

// Member is one pool entry as configuration sees it.
type Member struct {
	Addr string
	Zone string
}

// Members lists the current routable members in pool order — the diff
// base for montsyslb's -backends @file watch loop.
func (c *Cluster) Members() []Member {
	p := c.pool.Load()
	out := make([]Member, len(p.backends))
	for i, b := range p.backends {
		out[i] = Member{Addr: b.addr, Zone: b.zone}
	}
	return out
}

// ParseMemberList parses a comma-separated "addr[=zone]" list — the
// -backends flag syntax.
func ParseMemberList(s string) ([]Member, error) {
	var out []Member
	seen := make(map[string]bool)
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		m, err := parseMember(f)
		if err != nil {
			return nil, err
		}
		if seen[m.Addr] {
			continue
		}
		seen[m.Addr] = true
		out = append(out, m)
	}
	return out, nil
}

// LoadMemberFile parses a member file: one "addr[=zone]" per line,
// #-comments and blank lines ignored — the -backends @file syntax.
func LoadMemberFile(path string) ([]Member, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: reading member file: %w", err)
	}
	lines := make([]string, 0, 8)
	for _, ln := range strings.Split(string(raw), "\n") {
		if i := strings.IndexByte(ln, '#'); i >= 0 {
			ln = ln[:i]
		}
		if ln = strings.TrimSpace(ln); ln != "" {
			lines = append(lines, ln)
		}
	}
	return ParseMemberList(strings.Join(lines, ","))
}

// parseMember parses one "addr[=zone]" entry.
func parseMember(f string) (Member, error) {
	addr, zone, _ := strings.Cut(f, "=")
	addr, zone = strings.TrimSpace(addr), strings.TrimSpace(zone)
	if err := checkMember(addr, zone); err != nil {
		return Member{}, err
	}
	return Member{Addr: addr, Zone: zone}, nil
}

// zoneBad reports whether a zone is failing wholesale: at least two
// members and at least half of them out of rotation. Hedges never
// launch into a bad zone — a hedge is a bet placed with fleet
// capacity, and a zone visibly absorbing failures is the worst odds on
// the board. (Primary routing still may: when the bad zone holds the
// only up backends, slow beats unavailable.)
func zoneBad(p *membership, zone string) bool {
	if zone == "" {
		return false
	}
	var n, down int
	for _, b := range p.backends {
		if b.zone != zone {
			continue
		}
		n++
		if !b.up() {
			down++
		}
	}
	return n >= 2 && down*2 >= n
}

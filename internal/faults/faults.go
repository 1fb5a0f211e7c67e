// Package faults injects deterministic, seedable hardware-style
// faults into Montgomery cores. The paper's array computes one MMM in
// 3l+4 clock cycles across l+1 cells; a transient upset in any cell's
// result flip-flop silently corrupts T, and because T feeds back as an
// operand of the next multiplication under the no-final-subtraction
// regime (T stays in [0, 2N-1], never canonicalized), one flipped bit
// amplifies across the remaining squarings of an exponentiation — the
// Bellcore failure mode. This package models exactly that: a wrapper
// around an exponentiator core that perturbs the *results* of its
// exponentiations and lone products alike (bit-flip or stuck-at,
// one-shot or persistent, per-core, rate-limited, fire-after-N) so the
// integrity subsystem and the quarantine logic can be exercised in unit
// tests, loadgen, and CI chaos runs.
//
// Everything is deterministic given a seed: each core id derives its
// own rand stream, so a 4-worker engine with a seeded injector produces
// the same fault pattern on every run regardless of scheduling.
//
// Note the distinction from internal/logic's gate-level fault points,
// which flip wires *inside* a simulated circuit to study the netlist
// itself. This package corrupts at the operation boundary — cheap,
// mode-agnostic (reference arithmetic or circuit simulation alike), and
// composable with the engine's per-worker core ownership.
package faults

import (
	"math/big"
	"math/rand"
	"sync/atomic"

	"repro/internal/expo"
)

// Kind selects the corruption model.
type Kind uint8

const (
	// BitFlip inverts one bit of the result (transient upset).
	BitFlip Kind = iota
	// StuckAt forces one bit of the result to a fixed value
	// (permanent cell defect). A stuck-at fault whose target bit
	// already holds the stuck value does not manifest — exactly like
	// hardware — so even a persistent stuck-at corrupts only the
	// results whose correct value disagrees with the defect.
	StuckAt
)

// String names the kind for logs.
func (k Kind) String() string {
	if k == StuckAt {
		return "stuck-at"
	}
	return "bit-flip"
}

// Option configures an Injector.
type Option func(*Injector)

// WithSeed fixes the deterministic seed (default 1).
func WithSeed(s int64) Option { return func(in *Injector) { in.seed = s } }

// WithRate sets the per-operation fault probability in [0, 1]
// (default 1: every eligible operation is perturbed).
func WithRate(r float64) Option { return func(in *Injector) { in.rate = r } }

// WithBitFlip makes the injector flip the given bit; bit < 0 picks a
// random bit of the result each time. BitFlip is already the default
// kind; this option pins the position.
func WithBitFlip(bit int) Option {
	return func(in *Injector) { in.kind = BitFlip; in.bit = bit }
}

// WithStuckAt makes the injector force the given bit to val&1; bit < 0
// picks a random position per operation.
func WithStuckAt(bit int, val uint) Option {
	return func(in *Injector) { in.kind = StuckAt; in.bit = bit; in.stuckVal = val & 1 }
}

// WithCores restricts the fault to the listed core ids (default: all).
func WithCores(ids ...int) Option {
	return func(in *Injector) {
		in.cores = make(map[int]struct{}, len(ids))
		for _, id := range ids {
			in.cores[id] = struct{}{}
		}
	}
}

// WithAfter arms the fault only after n operations have passed through
// each core — corruption mid-burn-in rather than on the first op.
func WithAfter(n int64) Option { return func(in *Injector) { in.after = n } }

// WithOneShot limits each core to a single manifested fault (transient
// upset); the default is persistent.
func WithOneShot() Option { return func(in *Injector) { in.oneShot = true } }

// Injector is the shared fault configuration plus its global state. It
// is safe for concurrent use: mutable state is atomic, and all
// per-operation randomness lives in the per-core handles.
type Injector struct {
	kind     Kind
	seed     int64
	rate     float64
	bit      int
	stuckVal uint
	after    int64
	oneShot  bool
	cores    map[int]struct{} // nil = every core

	cleared atomic.Bool
	fired   atomic.Int64
}

// New builds an injector; with no options it bit-flips a random bit of
// every result on every core.
func New(opts ...Option) *Injector {
	in := &Injector{kind: BitFlip, seed: 1, rate: 1, bit: -1}
	for _, o := range opts {
		o(in)
	}
	if in.rate < 0 {
		in.rate = 0
	}
	if in.rate > 1 {
		in.rate = 1
	}
	return in
}

// Clear heals the fault: no further perturbations occur until Arm.
// This is how tests (and chaos drivers) model a transient defect going
// away so quarantined cores can pass their re-probe.
func (in *Injector) Clear() { in.cleared.Store(true) }

// Arm re-enables a cleared injector.
func (in *Injector) Arm() { in.cleared.Store(false) }

// Cleared reports whether the fault is currently healed.
func (in *Injector) Cleared() bool { return in.cleared.Load() }

// Injected returns how many operations were actually corrupted (faults
// that did not manifest — stuck-at matching the correct bit — are not
// counted).
func (in *Injector) Injected() int64 { return in.fired.Load() }

// Core derives the per-core handle for core id. The handle owns its
// deterministic rand stream and operation counter and is confined to
// one goroutine — exactly the engine's one-worker-one-core discipline.
func (in *Injector) Core(id int) *Core {
	_, targeted := in.cores[id]
	return &Core{
		in:     in,
		id:     id,
		active: in.cores == nil || targeted,
		rng:    rand.New(rand.NewSource(in.seed*1000003 + int64(id)*2654435761 + 97)),
	}
}

// Core is one core's view of the injector. Not safe for concurrent
// use; each worker owns its own.
type Core struct {
	in     *Injector
	id     int
	active bool
	rng    *rand.Rand
	ops    int64
	done   bool
}

// Perturb possibly corrupts v, a result of at most width bits
// (width ≤ 0 falls back to v's own length), and reports whether it
// did. v itself is never mutated; a corrupted result is a fresh
// big.Int. A nil Core never perturbs, so callers can hold one
// unconditionally.
func (c *Core) Perturb(v *big.Int, width int) (*big.Int, bool) {
	if c == nil || !c.active || c.in.cleared.Load() {
		return v, false
	}
	c.ops++
	if c.ops <= c.in.after {
		return v, false
	}
	if c.in.oneShot && c.done {
		return v, false
	}
	if c.in.rate < 1 && c.rng.Float64() >= c.in.rate {
		return v, false
	}
	if width < 1 {
		width = v.BitLen()
		if width < 1 {
			width = 1
		}
	}
	bit := c.in.bit
	if bit < 0 || bit >= width {
		bit = c.rng.Intn(width)
	}
	out := new(big.Int).Set(v)
	switch c.in.kind {
	case StuckAt:
		if out.Bit(bit) == c.in.stuckVal {
			return v, false // defect present but not manifested
		}
		out.SetBit(out, bit, c.in.stuckVal)
	default:
		out.SetBit(out, bit, out.Bit(bit)^1)
	}
	c.done = true
	c.in.fired.Add(1)
	return out, true
}

// Exponentiator is the result-bearing surface of expo.Exponentiator:
// a whole exponentiation and a lone Montgomery product, run by the same
// core as in the paper's §4.5 exponentiator.
type Exponentiator interface {
	ModExp(base, exp *big.Int) (*big.Int, expo.Report, error)
	Mont(x, y *big.Int) (*big.Int, int, error)
}

// Wrap returns inner with this core's faults applied to its results,
// for a modulus of l bits: ModExp results lie in [0, N) and are
// perturbed at width l, Mont results in [0, 2N) at width l+1.
func (c *Core) Wrap(inner Exponentiator, l int) Exponentiator {
	return &faulty{c: c, inner: inner, l: l}
}

type faulty struct {
	c     *Core
	inner Exponentiator
	l     int
}

func (f *faulty) ModExp(base, exp *big.Int) (*big.Int, expo.Report, error) {
	v, rep, err := f.inner.ModExp(base, exp)
	if err != nil {
		return v, rep, err
	}
	v, _ = f.c.Perturb(v, f.l)
	return v, rep, nil
}

func (f *faulty) Mont(x, y *big.Int) (*big.Int, int, error) {
	v, cycles, err := f.inner.Mont(x, y)
	if err != nil {
		return v, cycles, err
	}
	v, _ = f.c.Perturb(v, f.l+1)
	return v, cycles, nil
}

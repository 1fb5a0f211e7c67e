package faults

import (
	"errors"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/expo"
)

// TestPerturbDeterminism: two injectors with the same seed must corrupt
// the same operations in the same way — the whole point of seedable
// chaos is that a failing run can be replayed bit for bit.
func TestPerturbDeterminism(t *testing.T) {
	run := func() []string {
		in := New(WithSeed(42), WithRate(0.5))
		c := in.Core(3)
		rng := rand.New(rand.NewSource(7))
		var out []string
		for i := 0; i < 64; i++ {
			v := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 128))
			p, hit := c.Perturb(v, 128)
			if hit {
				out = append(out, p.Text(16))
			} else if p != v {
				t.Fatal("non-perturbed result must be the same pointer")
			}
		}
		return out
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("rate 0.5 over 64 ops fired nothing — seed stream broken")
	}
	if len(a) != len(b) {
		t.Fatalf("runs disagree on fault count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault %d differs across identically-seeded runs", i)
		}
	}
}

// TestPerturbPinnedBitFlip: a pinned bit-flip changes exactly that bit
// and never mutates the input.
func TestPerturbPinnedBitFlip(t *testing.T) {
	in := New(WithBitFlip(5))
	c := in.Core(0)
	v := big.NewInt(0b1000000)
	orig := new(big.Int).Set(v)
	p, hit := c.Perturb(v, 8)
	if !hit {
		t.Fatal("rate-1 injector did not fire")
	}
	if v.Cmp(orig) != 0 {
		t.Fatal("Perturb mutated its input")
	}
	if want := new(big.Int).SetBit(orig, 5, 1); p.Cmp(want) != 0 {
		t.Fatalf("got %b, want %b", p, want)
	}
	if in.Injected() != 1 {
		t.Fatalf("Injected() = %d, want 1", in.Injected())
	}
}

// TestStuckAtManifestation: a stuck-at-0 defect corrupts only values
// whose correct bit is 1, exactly like the hardware defect it models.
func TestStuckAtManifestation(t *testing.T) {
	in := New(WithStuckAt(2, 0))
	c := in.Core(0)

	// Bit 2 already 0: defect present but silent, not counted.
	p, hit := c.Perturb(big.NewInt(0b0011), 8)
	if hit || p.Int64() != 0b0011 {
		t.Fatalf("non-manifesting stuck-at fired: hit=%v v=%b", hit, p)
	}
	if in.Injected() != 0 {
		t.Fatal("silent stuck-at must not count as injected")
	}

	// Bit 2 is 1: the defect manifests.
	p, hit = c.Perturb(big.NewInt(0b0111), 8)
	if !hit || p.Int64() != 0b0011 {
		t.Fatalf("stuck-at-0 on bit 2: hit=%v v=%b, want 0b0011", hit, p)
	}
}

// TestOneShot: a one-shot injector manifests exactly once per core;
// silent stuck-ats do not consume the shot.
func TestOneShot(t *testing.T) {
	in := New(WithStuckAt(0, 0), WithOneShot())
	c := in.Core(0)
	if _, hit := c.Perturb(big.NewInt(2), 8); hit {
		t.Fatal("bit already stuck value: must not manifest")
	}
	if _, hit := c.Perturb(big.NewInt(3), 8); !hit {
		t.Fatal("first manifesting op must fire")
	}
	if _, hit := c.Perturb(big.NewInt(3), 8); hit {
		t.Fatal("one-shot fired twice")
	}
	// A different core of the same injector still has its shot.
	if _, hit := in.Core(1).Perturb(big.NewInt(3), 8); !hit {
		t.Fatal("one-shot must be per core, not global")
	}
}

// TestAfter: the fault stays dormant for the first n operations.
func TestAfter(t *testing.T) {
	in := New(WithAfter(3))
	c := in.Core(0)
	for i := 0; i < 3; i++ {
		if _, hit := c.Perturb(big.NewInt(1), 8); hit {
			t.Fatalf("op %d fired during the burn-in window", i)
		}
	}
	if _, hit := c.Perturb(big.NewInt(1), 8); !hit {
		t.Fatal("op after the window must fire")
	}
}

// TestCoreTargeting: WithCores restricts the fault to the listed ids.
func TestCoreTargeting(t *testing.T) {
	in := New(WithCores(1, 3))
	for id, want := range map[int]bool{0: false, 1: true, 2: false, 3: true} {
		_, hit := in.Core(id).Perturb(big.NewInt(1), 8)
		if hit != want {
			t.Errorf("core %d: hit=%v, want %v", id, hit, want)
		}
	}
}

// TestClearArm: Clear heals the fault mid-flight (how tests model a
// transient defect going away so quarantined cores re-probe clean),
// Arm brings it back.
func TestClearArm(t *testing.T) {
	in := New()
	c := in.Core(0)
	in.Clear()
	if !in.Cleared() {
		t.Fatal("Cleared() false after Clear")
	}
	if _, hit := c.Perturb(big.NewInt(1), 8); hit {
		t.Fatal("cleared injector fired")
	}
	in.Arm()
	if _, hit := c.Perturb(big.NewInt(1), 8); !hit {
		t.Fatal("re-armed injector did not fire")
	}
}

// TestRateZeroAndNil: rate 0 and a nil Core are both inert, so callers
// can hold a handle unconditionally.
func TestRateZeroAndNil(t *testing.T) {
	c := New(WithRate(0)).Core(0)
	for i := 0; i < 100; i++ {
		if _, hit := c.Perturb(big.NewInt(1), 8); hit {
			t.Fatal("rate-0 injector fired")
		}
	}
	var nilCore *Core
	v := big.NewInt(7)
	if p, hit := nilCore.Perturb(v, 8); hit || p != v {
		t.Fatal("nil Core must be a no-op")
	}
}

// fakeCore returns v from both operations.
type fakeCore struct{ v *big.Int }

func (f fakeCore) ModExp(base, exp *big.Int) (*big.Int, expo.Report, error) {
	return f.v, expo.Report{}, nil
}

func (f fakeCore) Mont(x, y *big.Int) (*big.Int, int, error) { return f.v, 7, nil }

// TestWrappers: the wrapped core corrupts successful results of both
// operations, at width l for ModExp and l+1 for Mont, and passes the
// product's cycle count through.
func TestWrappers(t *testing.T) {
	c := New(WithBitFlip(0)).Core(0)
	ex := c.Wrap(fakeCore{v: big.NewInt(0b10)}, 8)

	got, cycles, err := ex.Mont(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Int64() != 0b11 || cycles != 7 {
		t.Fatalf("wrapped Mont = %b, %d cycles; want bit 0 flipped, 7 cycles", got, cycles)
	}
	ev, _, err := ex.ModExp(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Int64() != 0b11 {
		t.Fatalf("wrapped ModExp = %b, want bit 0 flipped", ev)
	}

	// A bit pinned past the result width falls back to a random bit
	// inside it: l bits for ModExp, l+1 for Mont.
	ex = New(WithBitFlip(63)).Core(0).Wrap(fakeCore{v: new(big.Int)}, 8)
	var expTop, montTop int
	for i := 0; i < 200; i++ {
		v, _, _ := ex.ModExp(nil, nil)
		expTop = max(expTop, v.BitLen())
		v, _, _ = ex.Mont(nil, nil)
		montTop = max(montTop, v.BitLen())
	}
	if expTop != 8 || montTop != 9 {
		t.Fatalf("highest flipped bit: ModExp %d, Mont %d; want 8 and 9", expTop, montTop)
	}
}

type errCore struct{ err error }

func (f errCore) ModExp(base, exp *big.Int) (*big.Int, expo.Report, error) {
	return nil, expo.Report{}, f.err
}

func (f errCore) Mont(x, y *big.Int) (*big.Int, int, error) { return nil, 0, f.err }

// TestWrapperErrorPassthrough: a failing inner core's error is not
// perturbed into a "result".
func TestWrapperErrorPassthrough(t *testing.T) {
	sentinel := errors.New("core broke")
	ex := New().Core(0).Wrap(errCore{err: sentinel}, 8)
	if _, _, err := ex.Mont(nil, nil); !errors.Is(err, sentinel) {
		t.Fatalf("wrapper swallowed the Mont error: %v", err)
	}
	if _, _, err := ex.ModExp(nil, nil); !errors.Is(err, sentinel) {
		t.Fatalf("wrapper swallowed the ModExp error: %v", err)
	}
}

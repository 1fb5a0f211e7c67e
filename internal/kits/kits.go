// Package kits names the compute backends ("kits") the system can run a
// Montgomery operation on. Which kit runs is a configuration choice
// (WithKit, -kit); expo.(*Exponentiator).Mont is the one place that
// dispatches a product on it.
//
// The kits are the paper's design points made concrete:
//
//   - Model — the radix-2 Algorithm 2 reference loop plus the paper's
//     closed-form cycle model (3l+4 per multiplication). Bit-exact with
//     the hardware, host-speed arithmetic. The library default.
//   - Sim — the cycle-accurate simulated systolic array. Slowest by
//     orders of magnitude; exists for fidelity, never for throughput.
//   - CIOS — the production radix-2^64 word-serial fast path
//     (internal/highradix.Word): the §2 radix-2^α trade-off taken to
//     α = 64, limb-exact with one masked subtraction per product. The
//     serving default, and the fastest kit at every measured size.
//   - Big — math/big's own modular arithmetic as an oracle backend.
package kits

import (
	"fmt"
	"strings"
)

// Kit identifies a compute backend.
type Kit int

const (
	// Model is the paper-faithful radix-2 reference path (default).
	Model Kit = iota
	// Sim is the cycle-accurate simulated systolic circuit.
	Sim
	// CIOS is the radix-2^64 word-serial fast path.
	CIOS
	// Big is the math/big oracle backend.
	Big
)

// NumKits counts the kits — the size for per-kit stats arrays.
const NumKits = int(Big) + 1

// String returns the flag-friendly lowercase name.
func (k Kit) String() string {
	switch k {
	case Model:
		return "model"
	case Sim:
		return "sim"
	case CIOS:
		return "cios"
	case Big:
		return "big"
	}
	return fmt.Sprintf("kit(%d)", int(k))
}

// Parse maps a flag value (case-insensitive: model|sim|cios|big) to its
// Kit.
func Parse(s string) (Kit, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "model":
		return Model, nil
	case "sim", "simulate":
		return Sim, nil
	case "cios", "highradix", "word":
		return CIOS, nil
	case "big":
		return Big, nil
	}
	return Model, fmt.Errorf("kits: unknown kit %q (want model|sim|cios|big)", s)
}

// Valid reports whether k names a known kit.
func (k Kit) Valid() bool { return k >= Model && k <= Big }

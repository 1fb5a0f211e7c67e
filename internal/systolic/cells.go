// Package systolic implements the paper's core contribution: the linear
// systolic array for Montgomery modular multiplication without final
// subtraction (Figs. 1 and 2), at three levels of fidelity.
//
//   - Cell equations (this file): the four cell types of Fig. 1 as pure
//     bit functions, matching Eqs. (4)–(9) of the paper, plus gate-level
//     builders producing exactly the gate mix the paper states per cell.
//   - Iteration model (iter.go): one row computation T_{i-1} → W_i per
//     call, the digit-parallel view used to prove the array computes
//     Algorithm 2.
//   - Pipelined array (array.go): the cycle-accurate linear array of
//     Fig. 2, where cell j computes t_{i,j} at clock 2i+j.
//
// A reproduction note: the paper's leftmost cell (Fig. 1d) computes the
// top result bit with a bare XOR, silently dropping the weight-2^(l+2)
// carry. That is only sound when the y operand satisfies
// Y + N ≤ 2^(l+1); chained exponentiation feeds Y < 2N, which violates
// the condition for moduli above (2/3)·2^l and produces wrong results.
// This package therefore provides both the Faithful variant (exactly the
// paper) and a Guarded variant that appends one cap cell and one extra
// T flip-flop, making the array correct for all X, Y < 2N. See
// EXPERIMENTS.md for the characterization.
package systolic

import (
	"fmt"

	"repro/internal/bits"
	"repro/internal/logic"
)

// Bit re-exports the bit type used throughout the cell equations.
type Bit = bits.Bit

// RegularOut is the output bundle of a regular cell: the result digit t
// and the two carries of Eq. (4), c0 at weight 2 and c1 at weight 4
// (relative to the cell's digit position).
type RegularOut struct {
	T  Bit // t_{i,j}
	C0 Bit // c0_{i,j}
	C1 Bit // c1_{i,j}
}

// RegularCell evaluates Eq. (4), the paper's Fig. 1(a):
//
//	4·c1 + 2·c0 + t = tIn + xi·yj + mi·nj + 2·c1In + c0In
//
// where tIn = t_{i-1,j+1} (the division by two is realized by the shifted
// read). The decomposition mirrors the schematic: FA(tIn, xi·yj, c0In),
// then HA with mi·nj for the digit, then FA over the weight-2 column.
func RegularCell(tIn, xi, yj, mi, nj, c1In, c0In Bit) RegularOut {
	a := xi & yj // AND gate 1
	b := mi & nj // AND gate 2
	s1, ca := bits.FullAdd(tIn, a, c0In)
	t, cb := bits.HalfAdd(s1, b)
	c0, c1 := bits.FullAdd(ca, cb, c1In)
	return RegularOut{T: t, C0: c0, C1: c1}
}

// RightmostOut is the output bundle of the rightmost cell: the quotient
// digit m_i it generates, and the single weight-2 carry of Eq. (7).
// The digit t_{i,0} is identically zero and therefore not produced.
type RightmostOut struct {
	M  Bit // m_i, Eq. (5)
	C0 Bit // c0_{i,0}, Eq. (7)
}

// RightmostCell evaluates Eqs. (5)–(7), the paper's Fig. 1(b). It
// *generates* m_i = tIn ⊕ xi·y0 rather than receiving it, and emits
// c0 = tIn ∨ xi·y0 (the OR form of Eq. (7), valid because the weight-1
// column sums to zero by construction of m_i).
func RightmostCell(tIn, xi, y0 Bit) RightmostOut {
	a := xi & y0
	return RightmostOut{
		M:  tIn ^ a,
		C0: tIn | a,
	}
}

// FirstBitCell evaluates Eq. (8), the paper's Fig. 1(c) for digit j = 1:
//
//	4·c1 + 2·c0 + t = tIn + xi·y1 + mi·n1 + c0In
//
// Identical to a regular cell except the weight-2 column has no c1 input
// (the rightmost cell produces none), so the final full adder degrades to
// a half adder: 1 FA + 2 HA + 2 AND.
func FirstBitCell(tIn, xi, y1, mi, n1, c0In Bit) RegularOut {
	a := xi & y1
	b := mi & n1
	s1, ca := bits.FullAdd(tIn, a, c0In)
	t, cb := bits.HalfAdd(s1, b)
	c0, c1 := bits.HalfAdd(ca, cb)
	return RegularOut{T: t, C0: c0, C1: c1}
}

// LeftmostOut is the output bundle of the paper's leftmost cell
// (Fig. 1d): the two top digits of the row. Dropped reports whether the
// cell discarded a weight-4 carry — the overflow hazard documented in the
// package comment. A Faithful array propagates the (possibly wrong)
// digits exactly as the hardware would; Dropped lets tests and the
// Guarded variant detect the event.
type LeftmostOut struct {
	TL  Bit // t_{i,l}
	TL1 Bit // t_{i,l+1}
	// Dropped is the weight-4 carry the 1 FA + 1 AND + 1 XOR
	// implementation cannot represent.
	Dropped Bit
}

// LeftmostCell evaluates Eq. (9), the paper's Fig. 1(d), exploiting
// n_l = 0 so no m_i·n_l term exists:
//
//	2·t_{i,l+1} + t_{i,l} = tIn + xi·yl + 2·c1In + c0In
//
// The implementation is FA(tIn, xi·yl, c0In) for t_{i,l} plus a bare XOR
// for t_{i,l+1}; the XOR loses the carry ca·c1In whenever both are set.
func LeftmostCell(tIn, xi, yl, c1In, c0In Bit) LeftmostOut {
	a := xi & yl
	s1, ca := bits.FullAdd(tIn, a, c0In)
	return LeftmostOut{
		TL:      s1,
		TL1:     ca ^ c1In,
		Dropped: ca & c1In,
	}
}

// CapOut is the output bundle of the guard cap cell.
type CapOut struct {
	TL1 Bit // t_{i,l+1}
	TL2 Bit // t_{i,l+2}
}

// CapCell is the Guarded variant's extra top cell. The guarded leftmost
// cell keeps both weight-2 outputs (c0 = ca⊕c1In as the paper's XOR, plus
// c1 = ca·c1In from one extra AND); the cap cell then folds them into
// digits l+1 and l+2:
//
//	2·t_{i,l+2} + t_{i,l+1} = tIn2 + c0 + 2·c1
//
// where tIn2 = t_{i-1,l+2} is the guard flip-flop. Because every
// intermediate row satisfies W < 8N < 2^(l+3), the weight-2^(l+3) carry
// of this cell is provably zero, so one HA and one XOR suffice — the
// guard closes the hazard with 2 gates, 1 AND (in the leftmost cell) and
// 1 flip-flop.
func CapCell(tIn2, c0, c1 Bit) CapOut {
	s, c := bits.HalfAdd(tIn2, c0)
	return CapOut{TL1: s, TL2: c ^ c1}
}

// Gate-level builders. Each returns the same output bundle as its
// behavioural counterpart, as netlist signals. The gate mix per cell is
// asserted by tests against the paper's Fig. 1 inventory.

// BuildRegularCell instantiates Fig. 1(a): 2 FA + 1 HA + 2 AND.
func BuildRegularCell(n *logic.Netlist, tIn, xi, yj, mi, nj, c1In, c0In logic.Signal) (t, c0, c1 logic.Signal) {
	a := n.AndGate(xi, yj)
	b := n.AndGate(mi, nj)
	s1, ca := n.FullAdder(tIn, a, c0In)
	t, cb := n.HalfAdder(s1, b)
	c0, c1 = n.FullAdder(ca, cb, c1In)
	return t, c0, c1
}

// BuildRightmostCell instantiates Fig. 1(b): 1 AND + 1 OR + 1 XOR.
func BuildRightmostCell(n *logic.Netlist, tIn, xi, y0 logic.Signal) (m, c0 logic.Signal) {
	a := n.AndGate(xi, y0)
	m = n.XorGate(tIn, a)
	c0 = n.OrGate(tIn, a)
	return m, c0
}

// BuildFirstBitCell instantiates Fig. 1(c): 1 FA + 2 HA + 2 AND.
func BuildFirstBitCell(n *logic.Netlist, tIn, xi, y1, mi, n1, c0In logic.Signal) (t, c0, c1 logic.Signal) {
	a := n.AndGate(xi, y1)
	b := n.AndGate(mi, n1)
	s1, ca := n.FullAdder(tIn, a, c0In)
	t, cb := n.HalfAdder(s1, b)
	c0, c1 = n.HalfAdder(ca, cb)
	return t, c0, c1
}

// BuildLeftmostCell instantiates Fig. 1(d): 1 FA + 1 AND + 1 XOR.
func BuildLeftmostCell(n *logic.Netlist, tIn, xi, yl, c1In, c0In logic.Signal) (tl, tl1 logic.Signal) {
	a := n.AndGate(xi, yl)
	s1, ca := n.FullAdder(tIn, a, c0In)
	tl1 = n.XorGate(ca, c1In)
	return s1, tl1
}

// BuildGuardedLeftmostCell is the leftmost cell keeping both weight-2
// outputs: the paper's cell plus one AND for the carry it would drop.
func BuildGuardedLeftmostCell(n *logic.Netlist, tIn, xi, yl, c1In, c0In logic.Signal) (tl, c0, c1 logic.Signal) {
	a := n.AndGate(xi, yl)
	s1, ca := n.FullAdder(tIn, a, c0In)
	c0 = n.XorGate(ca, c1In)
	c1 = n.AndGate(ca, c1In)
	return s1, c0, c1
}

// BuildCapCell instantiates the guard cap: 1 HA + 1 XOR.
func BuildCapCell(n *logic.Netlist, tIn2, c0, c1 logic.Signal) (tl1, tl2 logic.Signal) {
	s, c := n.HalfAdder(tIn2, c0)
	tl2 = n.XorGate(c, c1)
	return s, tl2
}

// Variant selects between the paper's exact array and the overflow-safe
// extension.
type Variant int

const (
	// Faithful reproduces Fig. 1/2 exactly, including the leftmost
	// cell's dropped carry. Correct only while Y + N ≤ 2^(l+1).
	Faithful Variant = iota
	// Guarded appends the cap cell and guard flip-flop; correct for all
	// X, Y ∈ [0, 2N-1].
	Guarded
)

// String names the variant.
func (v Variant) String() string {
	switch v {
	case Faithful:
		return "faithful"
	case Guarded:
		return "guarded"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// ParseVariant is the inverse of String for the two variants the
// command-line tools accept: "guarded" and "faithful".
func ParseVariant(s string) (Variant, error) {
	switch s {
	case "guarded":
		return Guarded, nil
	case "faithful":
		return Faithful, nil
	}
	return Guarded, fmt.Errorf("unknown variant %q", s)
}

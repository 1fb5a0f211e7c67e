package systolic

import (
	"testing"

	"repro/internal/bits"
	"repro/internal/logic"
)

// Exhaustively verify the regular cell against Eq. (4):
// 4·c1 + 2·c0 + t = tIn + xi·yj + mi·nj + 2·c1In + c0In.
func TestRegularCellEq4(t *testing.T) {
	for v := 0; v < 1<<7; v++ {
		tIn, xi, yj := Bit(v&1), Bit(v>>1&1), Bit(v>>2&1)
		mi, nj := Bit(v>>3&1), Bit(v>>4&1)
		c1In, c0In := Bit(v>>5&1), Bit(v>>6&1)
		out := RegularCell(tIn, xi, yj, mi, nj, c1In, c0In)
		lhs := 4*int(out.C1) + 2*int(out.C0) + int(out.T)
		rhs := int(tIn) + int(xi&yj) + int(mi&nj) + 2*int(c1In) + int(c0In)
		if lhs != rhs {
			t.Fatalf("Eq4 violated for v=%07b: lhs=%d rhs=%d", v, lhs, rhs)
		}
	}
}

// Exhaustively verify the rightmost cell against Eqs. (5)–(7): m_i makes
// the weight-1 column vanish and c0 carries the remainder.
func TestRightmostCellEq567(t *testing.T) {
	for v := 0; v < 1<<3; v++ {
		tIn, xi, y0 := Bit(v&1), Bit(v>>1&1), Bit(v>>2&1)
		out := RightmostCell(tIn, xi, y0)
		// Eq (5): m = (tIn + xi·y0) mod 2.
		if out.M != (tIn+xi&y0)&1 {
			t.Fatalf("Eq5 violated for v=%03b", v)
		}
		// Eq (6): 2·c0 + t0 = tIn + xi·y0 + m with t0 = 0.
		if 2*int(out.C0) != int(tIn)+int(xi&y0)+int(out.M) {
			t.Fatalf("Eq6 violated for v=%03b", v)
		}
	}
}

// Exhaustively verify the 1st-bit cell against Eq. (8).
func TestFirstBitCellEq8(t *testing.T) {
	for v := 0; v < 1<<6; v++ {
		tIn, xi, y1 := Bit(v&1), Bit(v>>1&1), Bit(v>>2&1)
		mi, n1, c0In := Bit(v>>3&1), Bit(v>>4&1), Bit(v>>5&1)
		out := FirstBitCell(tIn, xi, y1, mi, n1, c0In)
		lhs := 4*int(out.C1) + 2*int(out.C0) + int(out.T)
		rhs := int(tIn) + int(xi&y1) + int(mi&n1) + int(c0In)
		if lhs != rhs {
			t.Fatalf("Eq8 violated for v=%06b: lhs=%d rhs=%d", v, lhs, rhs)
		}
	}
}

// Exhaustively verify the leftmost cell against Eq. (9), including the
// precise characterization of when the carry drop occurs.
func TestLeftmostCellEq9(t *testing.T) {
	for v := 0; v < 1<<5; v++ {
		tIn, xi, yl := Bit(v&1), Bit(v>>1&1), Bit(v>>2&1)
		c1In, c0In := Bit(v>>3&1), Bit(v>>4&1)
		out := LeftmostCell(tIn, xi, yl, c1In, c0In)
		rhs := int(tIn) + int(xi&yl) + 2*int(c1In) + int(c0In)
		lhs := 2*int(out.TL1) + int(out.TL)
		// The cell is exact iff the sum fits in two digits; otherwise it
		// loses exactly 4 and must flag Dropped.
		if rhs < 4 {
			if lhs != rhs || out.Dropped != 0 {
				t.Fatalf("v=%05b: lhs=%d rhs=%d dropped=%d", v, lhs, rhs, out.Dropped)
			}
		} else {
			if lhs != rhs-4 || out.Dropped != 1 {
				t.Fatalf("v=%05b overflow: lhs=%d rhs=%d dropped=%d", v, lhs, rhs, out.Dropped)
			}
		}
	}
}

// The cap cell must be exact whenever its own top carry is zero, which
// the W < 2^(l+3) bound guarantees; verify exactness on all inputs where
// tIn2 + c0 + 2·c1 < 4 and that the only inexact input is the provably
// unreachable all-ones-with-c1 case.
func TestCapCellEquation(t *testing.T) {
	for v := 0; v < 1<<3; v++ {
		tIn2, c0, c1 := Bit(v&1), Bit(v>>1&1), Bit(v>>2&1)
		out := CapCell(tIn2, c0, c1)
		rhs := int(tIn2) + int(c0) + 2*int(c1)
		lhs := 2*int(out.TL2) + int(out.TL1)
		if rhs < 4 && lhs != rhs {
			t.Fatalf("cap cell wrong for reachable input %03b: lhs=%d rhs=%d", v, lhs, rhs)
		}
		if rhs == 4 && lhs != 0 {
			t.Fatalf("cap cell unreachable case should wrap to 0, got %d", lhs)
		}
	}
}

// The guarded leftmost must be exact on all inputs (it keeps the carry).
func TestGuardedLeftmostExact(t *testing.T) {
	for v := 0; v < 1<<5; v++ {
		tIn, xi, yl := Bit(v&1), Bit(v>>1&1), Bit(v>>2&1)
		c1In, c0In := Bit(v>>3&1), Bit(v>>4&1)
		tl, c0, c1 := guardedLeftmost(tIn, xi, yl, c1In, c0In)
		lhs := 4*int(c1) + 2*int(c0) + int(tl)
		rhs := int(tIn) + int(xi&yl) + 2*int(c1In) + int(c0In)
		if lhs != rhs {
			t.Fatalf("guarded leftmost wrong for %05b: lhs=%d rhs=%d", v, lhs, rhs)
		}
	}
}

// Gate-level cell builders must agree with the behavioural cells on every
// input combination, and instantiate exactly the gate mix of Fig. 1.
func TestBuildCellsMatchBehaviouralAndCensus(t *testing.T) {
	t.Run("regular", func(t *testing.T) {
		nl := logic.New()
		in := nl.InputVec("in", 7)
		tOut, c0, c1 := BuildRegularCell(nl, in[0], in[1], in[2], in[3], in[4], in[5], in[6])
		cen := nl.Census()
		// Fig. 1(a): 2 FA + 1 HA + 2 AND.
		if cen.FullAdders != 2 || cen.HalfAdders != 1 || cen.And != 7 || cen.Xor != 5 || cen.Or != 2 {
			t.Errorf("regular cell census: %s", cen)
		}
		sim, err := logic.Compile(nl)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < 1<<7; v++ {
			vals := make(bits.Vec, 7)
			for i := range vals {
				vals[i] = Bit(v >> i & 1)
			}
			sim.SetMany(in, vals)
			want := RegularCell(vals[0], vals[1], vals[2], vals[3], vals[4], vals[5], vals[6])
			if sim.Get(tOut) != want.T || sim.Get(c0) != want.C0 || sim.Get(c1) != want.C1 {
				t.Fatalf("gate regular cell mismatch at %07b", v)
			}
		}
	})

	t.Run("rightmost", func(t *testing.T) {
		nl := logic.New()
		in := nl.InputVec("in", 3)
		m, c0 := BuildRightmostCell(nl, in[0], in[1], in[2])
		cen := nl.Census()
		// Fig. 1(b): 1 AND + 1 OR + 1 XOR.
		if cen.And != 1 || cen.Or != 1 || cen.Xor != 1 || cen.TotalGates() != 3 {
			t.Errorf("rightmost cell census: %s", cen)
		}
		sim, _ := logic.Compile(nl)
		for v := 0; v < 1<<3; v++ {
			vals := bits.Vec{Bit(v & 1), Bit(v >> 1 & 1), Bit(v >> 2 & 1)}
			sim.SetMany(in, vals)
			want := RightmostCell(vals[0], vals[1], vals[2])
			if sim.Get(m) != want.M || sim.Get(c0) != want.C0 {
				t.Fatalf("gate rightmost cell mismatch at %03b", v)
			}
		}
	})

	t.Run("firstbit", func(t *testing.T) {
		nl := logic.New()
		in := nl.InputVec("in", 6)
		tOut, c0, c1 := BuildFirstBitCell(nl, in[0], in[1], in[2], in[3], in[4], in[5])
		cen := nl.Census()
		// Fig. 1(c): 1 FA + 2 HA + 2 AND.
		if cen.FullAdders != 1 || cen.HalfAdders != 2 || cen.And != 6 || cen.Xor != 4 || cen.Or != 1 {
			t.Errorf("firstbit cell census: %s", cen)
		}
		sim, _ := logic.Compile(nl)
		for v := 0; v < 1<<6; v++ {
			vals := make(bits.Vec, 6)
			for i := range vals {
				vals[i] = Bit(v >> i & 1)
			}
			sim.SetMany(in, vals)
			want := FirstBitCell(vals[0], vals[1], vals[2], vals[3], vals[4], vals[5])
			if sim.Get(tOut) != want.T || sim.Get(c0) != want.C0 || sim.Get(c1) != want.C1 {
				t.Fatalf("gate firstbit cell mismatch at %06b", v)
			}
		}
	})

	t.Run("leftmost", func(t *testing.T) {
		nl := logic.New()
		in := nl.InputVec("in", 5)
		tl, tl1 := BuildLeftmostCell(nl, in[0], in[1], in[2], in[3], in[4])
		cen := nl.Census()
		// Fig. 1(d): 1 FA + 1 AND + 1 XOR.
		if cen.FullAdders != 1 || cen.And != 3 || cen.Xor != 3 || cen.Or != 1 {
			t.Errorf("leftmost cell census: %s", cen)
		}
		sim, _ := logic.Compile(nl)
		for v := 0; v < 1<<5; v++ {
			vals := make(bits.Vec, 5)
			for i := range vals {
				vals[i] = Bit(v >> i & 1)
			}
			sim.SetMany(in, vals)
			want := LeftmostCell(vals[0], vals[1], vals[2], vals[3], vals[4])
			if sim.Get(tl) != want.TL || sim.Get(tl1) != want.TL1 {
				t.Fatalf("gate leftmost cell mismatch at %05b", v)
			}
		}
	})

	t.Run("cap", func(t *testing.T) {
		nl := logic.New()
		in := nl.InputVec("in", 3)
		tl1, tl2 := BuildCapCell(nl, in[0], in[1], in[2])
		cen := nl.Census()
		if cen.HalfAdders != 1 || cen.Xor != 2 || cen.And != 1 {
			t.Errorf("cap cell census: %s", cen)
		}
		sim, _ := logic.Compile(nl)
		for v := 0; v < 1<<3; v++ {
			vals := bits.Vec{Bit(v & 1), Bit(v >> 1 & 1), Bit(v >> 2 & 1)}
			sim.SetMany(in, vals)
			want := CapCell(vals[0], vals[1], vals[2])
			if sim.Get(tl1) != want.TL1 || sim.Get(tl2) != want.TL2 {
				t.Fatalf("gate cap cell mismatch at %03b", v)
			}
		}
	})

	t.Run("guardedLeftmost", func(t *testing.T) {
		nl := logic.New()
		in := nl.InputVec("in", 5)
		tl, c0, c1 := BuildGuardedLeftmostCell(nl, in[0], in[1], in[2], in[3], in[4])
		sim, _ := logic.Compile(nl)
		for v := 0; v < 1<<5; v++ {
			vals := make(bits.Vec, 5)
			for i := range vals {
				vals[i] = Bit(v >> i & 1)
			}
			sim.SetMany(in, vals)
			wantTL, wantC0, wantC1 := guardedLeftmost(vals[0], vals[1], vals[2], vals[3], vals[4])
			if sim.Get(tl) != wantTL || sim.Get(c0) != wantC0 || sim.Get(c1) != wantC1 {
				t.Fatalf("gate guarded leftmost mismatch at %05b", v)
			}
		}
	})
}

func TestVariantString(t *testing.T) {
	if Faithful.String() != "faithful" || Guarded.String() != "guarded" {
		t.Error("variant names wrong")
	}
	if Variant(9).String() == "" {
		t.Error("unknown variant name empty")
	}
}

func TestParseVariant(t *testing.T) {
	for _, v := range []Variant{Faithful, Guarded} {
		got, err := ParseVariant(v.String())
		if err != nil || got != v {
			t.Errorf("ParseVariant(%q) = %v, %v; want %v", v.String(), got, err, v)
		}
	}
	if _, err := ParseVariant("Guarded"); err == nil || err.Error() != `unknown variant "Guarded"` {
		t.Errorf("ParseVariant(\"Guarded\") error = %v", err)
	}
}

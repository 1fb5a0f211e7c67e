package kits

import (
	"strings"
	"testing"
)

func TestParseRoundTrip(t *testing.T) {
	for _, k := range []Kit{Model, Sim, CIOS, Big} {
		got, err := Parse(k.String())
		if err != nil || got != k {
			t.Errorf("Parse(%q) = %v, %v", k.String(), got, err)
		}
	}
	// Aliases and case folding.
	for s, want := range map[string]Kit{
		"simulate": Sim, "highradix": CIOS, "word": CIOS,
		"CIOS": CIOS, " big ": Big,
	} {
		got, err := Parse(s)
		if err != nil || got != want {
			t.Errorf("Parse(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"fpga", "auto", "Auto"} {
		if _, err := Parse(s); err == nil || !strings.Contains(err.Error(), "unknown kit") {
			t.Errorf("Parse(%q) error = %v, want the unknown-kit error", s, err)
		}
	}
	if Kit(NumKits).Valid() || Kit(99).Valid() || Kit(-1).Valid() {
		t.Error("out-of-range kit reported Valid")
	}
}

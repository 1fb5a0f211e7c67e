package mont

import (
	"math/big"
	"testing"
)

func TestNegInvMod64(t *testing.T) {
	for _, n := range []uint64{1, 3, 5, 0xffffffffffffffff, 0x123456789abcdef1} {
		inv := negInvMod64(n)
		if n*inv+1 != 0 {
			t.Errorf("negInvMod64(%#x): n·inv+1 = %#x, want 0", n, n*inv+1)
		}
	}
}

// Little-endian []uint64 limbs are the package's natural-number
// representation for the word kernel. The limb conversions round-trip
// every value that fits.
func TestNatBytesRoundTrip(t *testing.T) {
	for _, cs := range []string{"0", "1", "ff", "ffffffffffffffff", "10000000000000000", "deadbeefcafebabe0123456789abcdef"} {
		x, _ := new(big.Int).SetString(cs, 16)
		if got := BigFromWords(WordsFromBig(x, 3)); got.Cmp(x) != 0 {
			t.Errorf("%s: WordsFromBig round trip got %s", cs, got.Text(16))
		}
		buf := []uint64{^uint64(0), ^uint64(0), ^uint64(0)} // stale limbs must be cleared
		WordsSetBig(buf, x)
		if got := BigFromWords(buf); got.Cmp(x) != 0 {
			t.Errorf("%s: WordsSetBig round trip got %s", cs, got.Text(16))
		}
	}
}

// A value that does not fit its limbs is a bound violation by the
// caller: the conversions panic rather than truncate.
func TestNatFromBytesOverflowPanics(t *testing.T) {
	tooBig := new(big.Int).Lsh(big.NewInt(1), 64)
	for name, f := range map[string]func(){
		"WordsFromBig overflow": func() { WordsFromBig(tooBig, 1) },
		"WordsFromBig negative": func() { WordsFromBig(big.NewInt(-1), 1) },
		"WordsSetBig overflow":  func() { WordsSetBig(make([]uint64, 1), tooBig) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

//go:build !math_big_pure_go

#include "textflag.h"

// func addMulVVW(z, x []uint64, y uint64) (c uint64)
//
// Same frame as math/big's addMulVVW, so a tail jump hands it the
// caller's arguments and return slot unchanged.
TEXT ·addMulVVW(SB),NOSPLIT,$0-64
	JMP math∕big·addMulVVW(SB)

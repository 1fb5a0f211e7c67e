//go:build !(amd64 || arm64 || loong64 || mips64 || mips64le || ppc64 || ppc64le || riscv64 || s390x || wasm) || math_big_pure_go

package highradix

import mathbits "math/bits"

// addMulVVW sets z += x·y over len(z) limbs and returns the carry-out
// limb: the portable row operation for GOARCHes whose big.Word is 32
// bits (and for math_big_pure_go builds), where math/big's assembly
// takes a different slice type. Each step retires one limb and hands one
// carry limb onward.
func addMulVVW(z, x []uint64, y uint64) (c uint64) {
	x = x[:len(z)]
	for i, xi := range x {
		hi, lo := mathbits.Mul64(xi, y)
		lo, c1 := mathbits.Add64(lo, z[i], 0)
		lo, c2 := mathbits.Add64(lo, c, 0)
		z[i] = lo
		c = hi + c1 + c2 // cannot overflow: hi ≤ 2^64-2
	}
	return c
}

//go:build !math_big_pure_go

package highradix

// addMulVVW sets z += x·y over len(z) limbs and returns the carry-out
// limb. It is math/big's own assembly row operation, with its ADX/MULX
// path, reached by a one-instruction tail jump in addmul_amd64.s rather
// than by go:linkname as on the other 64-bit GOARCHes (addmul_asm.go). A
// linknamed call to an assembly function goes through an ABI wrapper
// that stores and reloads the arguments, and the kernel makes two such
// calls per limb pass; calling the assembly directly took about 5% off
// a 1024-bit ModExp on a two-vCPU Xeon. math/big keeps the symbol
// linkable on purpose (go.dev/issue/67401), and big.Word is 64 bits
// here, so []uint64 is the same ABI as []big.Word.
//
//go:noescape
func addMulVVW(z, x []uint64, y uint64) (c uint64)

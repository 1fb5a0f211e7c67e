//go:build (amd64 || arm64 || loong64 || mips64 || mips64le || ppc64 || ppc64le || riscv64 || s390x || wasm) && !math_big_pure_go

package highradix

import _ "unsafe" // for go:linkname

// addMulVVW sets z += x·y over len(z) limbs and returns the carry-out
// limb. It is math/big's own row operation, in assembly on every
// GOARCH (with an ADX/MULX path on amd64); math/big keeps the symbol
// linkable on purpose (go.dev/issue/67401). On these 64-bit GOARCHes
// big.Word is 64 bits wide, so []uint64 is the same ABI as []big.Word.
//
//go:linkname addMulVVW math/big.addMulVVW
//go:noescape
func addMulVVW(z, x []uint64, y uint64) (c uint64)

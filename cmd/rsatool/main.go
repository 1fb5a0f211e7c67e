// Command rsatool demonstrates the RSA application of §4.5: it generates
// a key with the repository's own Miller–Rabin (over the reproduced
// Montgomery exponentiator), encrypts and decrypts a message, signs and
// verifies it, and prints the cycle accounting of every exponentiation.
//
// Usage:
//
//	rsatool [-bits 128] [-msg <hex>] [-seed 1] [-kit model|sim|cios|big] [-crt] [-sign]
//
// The -kit flag selects the compute kit every exponentiation runs on
// (see internal/kits); -kit sim is cycle-accurate and slow, so keep
// -bits small with it.
package main

import (
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"math/big"
	"math/rand"
	"os"

	"repro/internal/expo"
	"repro/internal/kits"
	"repro/internal/rsa"
)

func main() {
	bitsFlag := flag.Int("bits", 128, "modulus size in bits (even, ≥ 16)")
	msgHex := flag.String("msg", "48656c6c6f", "message (hex, < N)")
	seed := flag.Int64("seed", 1, "deterministic key-generation seed")
	kitFlag := flag.String("kit", "model", "compute kit: model|sim|cios|big")
	crt := flag.Bool("crt", true, "decrypt with CRT")
	sign := flag.Bool("sign", true, "also sign the message (SHA-256 digest, via CRT) and verify")
	flag.Parse()

	k, err := kits.Parse(*kitFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rsatool:", err)
		os.Exit(1)
	}
	if err := run(*bitsFlag, *msgHex, *seed, k, *crt, *sign); err != nil {
		fmt.Fprintln(os.Stderr, "rsatool:", err)
		os.Exit(1)
	}
}

func run(bits int, msgHex string, seed int64, k kits.Kit, crt, sign bool) error {
	rng := rand.New(rand.NewSource(seed))
	fmt.Printf("generating %d-bit RSA key (Miller–Rabin over the Montgomery exponentiator)...\n", bits)
	key, err := rsa.GenerateKey(bits, nil, rng)
	if err != nil {
		return err
	}
	if err := key.Validate(); err != nil {
		return err
	}
	fmt.Printf("N = %s\nE = %s\nD = %s\nkit = %v\n", key.N.Text(16), key.E.Text(16), key.D.Text(16), k)

	m, ok := new(big.Int).SetString(msgHex, 16)
	if !ok {
		return fmt.Errorf("invalid message %q", msgHex)
	}
	if m.Cmp(key.N) >= 0 {
		return fmt.Errorf("message must be smaller than N")
	}

	c, repE, err := key.Encrypt(m, k)
	if err != nil {
		return err
	}
	fmt.Printf("\nencrypt: C = M^E mod N = %s\n", c.Text(16))
	fmt.Printf("         %d squares + %d multiplies, %d cycles (paper model)\n",
		repE.Squares, repE.Multiplies, repE.TotalCycles)

	var back *big.Int
	var repD expo.Report
	if crt {
		back, repD, err = key.DecryptCRT(c, k)
		fmt.Printf("decrypt (CRT): M = %s\n", back.Text(16))
	} else {
		back, repD, err = key.Decrypt(c, k)
		fmt.Printf("decrypt: M = %s\n", back.Text(16))
	}
	if err != nil {
		return err
	}
	fmt.Printf("         %d squares + %d multiplies, %d cycles (paper model)\n",
		repD.Squares, repD.Multiplies, repD.TotalCycles)
	if k == kits.Sim {
		fmt.Printf("         simulated circuit cycles: enc %d, dec %d\n",
			repE.SimulatedMulCycles, repD.SimulatedMulCycles)
	}

	if back.Cmp(m) != 0 {
		return fmt.Errorf("round trip FAILED: %s != %s", back.Text(16), m.Text(16))
	}
	fmt.Println("\nround trip: OK")

	if sign {
		sig, repS, err := signMessage(key, m.Bytes(), k)
		if err != nil {
			return err
		}
		fmt.Printf("\nsign (SHA-256): s = H(M)^D mod N = %s\n", sig.Text(16))
		fmt.Printf("         %d squares + %d multiplies, %d cycles (paper model)\n",
			repS.Squares, repS.Multiplies, repS.TotalCycles)
		fmt.Println("signature verify: OK")
	}
	return nil
}

// signMessage signs msg textbook-style, s = h^D mod N for
// h = SHA-256(msg) mod N, through the CRT private-key operation, and
// checks s^E ≡ h (mod N) on the same kit before returning s with the
// CRT report. Unpadded, like the rest of this demo: no PSS or PKCS#1.
func signMessage(key *rsa.PrivateKey, msg []byte, k kits.Kit) (*big.Int, expo.Report, error) {
	digest := sha256.Sum256(msg)
	h := new(big.Int).SetBytes(digest[:])
	h.Mod(h, key.N)
	if h.Sign() == 0 {
		return nil, expo.Report{}, errors.New("degenerate digest (SHA-256 ≡ 0 mod N)")
	}
	sig, rep, err := key.DecryptCRT(h, k)
	if err != nil {
		return nil, expo.Report{}, err
	}
	back, _, err := key.Encrypt(sig, k)
	if err != nil {
		return nil, expo.Report{}, err
	}
	if back.Cmp(h) != 0 {
		return nil, expo.Report{}, errors.New("signature verification FAILED")
	}
	return sig, rep, nil
}

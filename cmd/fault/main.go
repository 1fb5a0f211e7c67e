// Command fault runs a single-stuck-at fault campaign on the gate-level
// MMM circuit: every gate and flip-flop output is pinned to 0 and to 1 in
// turn, a functional test of a few multiplications runs against each
// faulty machine, and the campaign reports how many defects the test
// detects — the manufacturing-test view of the paper's design.
//
// Usage:
//
//	fault [-l 8] [-vectors 4] [-variant guarded|faithful] [-seed 1] [-list]
package main

import (
	"flag"
	"fmt"
	"math/big"
	"math/rand"
	"os"

	"repro/internal/bits"
	"repro/internal/logic"
	"repro/internal/mmmc"
	"repro/internal/systolic"
)

func main() {
	l := flag.Int("l", 8, "modulus bit length")
	vectors := flag.Int("vectors", 4, "multiplications in the functional test")
	variantName := flag.String("variant", "guarded", "cell variant: guarded or faithful")
	seed := flag.Int64("seed", 1, "rng seed for the test vectors")
	list := flag.Bool("list", false, "list undetected fault sites")
	flag.Parse()

	if err := run(*l, *vectors, *variantName, *seed, *list); err != nil {
		fmt.Fprintln(os.Stderr, "fault:", err)
		os.Exit(1)
	}
}

func run(l, vectors int, variantName string, seed int64, list bool) error {
	variant, err := systolic.ParseVariant(variantName)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	n := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(l-1)))
	n.SetBit(n, l-1, 1)
	n.SetBit(n, 0, 1)

	nl := logic.New()
	p, err := mmmc.BuildNetlist(nl, l, variant)
	if err != nil {
		return err
	}

	type vec struct{ x, y *big.Int }
	tests := make([]vec, vectors)
	n2 := new(big.Int).Lsh(n, 1)
	for i := range tests {
		tests[i] = vec{new(big.Int).Rand(rng, n2), new(big.Int).Rand(rng, n2)}
	}

	driver := func(s *logic.Sim) []bits.Vec {
		var obs []bits.Vec
		for _, tv := range tests {
			s.SetMany(p.XBus, bits.FromBig(tv.x, l+1))
			s.SetMany(p.YBus, bits.FromBig(tv.y, l+1))
			s.SetMany(p.NBus, bits.FromBig(n, l))
			s.Set(p.Start, 1)
			s.Step()
			s.Set(p.Start, 0)
			for c := 0; c < 3*l+4; c++ {
				s.Step()
			}
			obs = append(obs, append(s.GetVec(p.Result), s.Get(p.Done)))
		}
		return obs
	}

	faults := logic.AllStuckAtFaults(nl)
	fmt.Printf("MMMC l=%d (%s): %d gates, %d flip-flops, %d fault sites\n",
		l, variant, nl.NumGates(), nl.NumDFFs(), len(faults))
	fmt.Printf("functional test: %d multiplications mod %s\n\n", vectors, n.Text(16))

	rep, err := logic.RunFaultCampaign(nl, faults, driver)
	if err != nil {
		return err
	}
	fmt.Println(rep)
	if list {
		fmt.Println("\nundetected sites:")
		for _, f := range rep.Undetected {
			fmt.Printf("  %s (%s)\n", f, nl.NameOf(f.Net))
		}
	}
	return nil
}

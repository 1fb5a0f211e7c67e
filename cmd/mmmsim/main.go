// Command mmmsim runs one Montgomery modular multiplication through the
// cycle-accurate simulated MMM circuit and reports the result and cycle
// count; optionally it also runs the gate-level netlist and dumps a VCD
// waveform of the systolic array's registers.
//
// Usage:
//
//	mmmsim -n <hex modulus> -x <hex> -y <hex> [-variant guarded|faithful]
//	       [-gate] [-vcd trace.vcd]
//
// Example:
//
//	mmmsim -n f1f1 -x 1234 -y beef -gate -vcd /tmp/mmm.vcd
package main

import (
	"flag"
	"fmt"
	"math/big"
	"os"

	"repro/internal/bits"
	"repro/internal/logic"
	"repro/internal/mmmc"
	"repro/internal/mont"
	"repro/internal/systolic"
	"repro/internal/wave"
)

func main() {
	nHex := flag.String("n", "f1f1", "modulus N (hex, odd)")
	xHex := flag.String("x", "1234", "operand x (hex, < 2N)")
	yHex := flag.String("y", "beef", "operand y (hex, < 2N)")
	variantName := flag.String("variant", "guarded", "array variant: guarded or faithful")
	gate := flag.Bool("gate", false, "also run the gate-level netlist")
	vcdPath := flag.String("vcd", "", "write a VCD waveform of the gate-level run to this file")
	flag.Parse()

	if err := run(*nHex, *xHex, *yHex, *variantName, *gate, *vcdPath); err != nil {
		fmt.Fprintln(os.Stderr, "mmmsim:", err)
		os.Exit(1)
	}
}

func run(nHex, xHex, yHex, variantName string, gate bool, vcdPath string) error {
	n, ok := new(big.Int).SetString(nHex, 16)
	if !ok {
		return fmt.Errorf("invalid modulus %q", nHex)
	}
	x, ok := new(big.Int).SetString(xHex, 16)
	if !ok {
		return fmt.Errorf("invalid x %q", xHex)
	}
	y, ok := new(big.Int).SetString(yHex, 16)
	if !ok {
		return fmt.Errorf("invalid y %q", yHex)
	}
	variant, err := systolic.ParseVariant(variantName)
	if err != nil {
		return err
	}

	ctx, err := mont.NewCtx(n)
	if err != nil {
		return err
	}
	l := ctx.L
	fmt.Printf("modulus N = %s (l = %d bits), R = 2^%d, variant = %s\n",
		n.Text(16), l, l+2, variant)

	c, err := mmmc.New(l, variant)
	if err != nil {
		return err
	}
	res, cycles, err := c.Run(bits.FromBig(x, l+1), bits.FromBig(y, l+1), bits.FromBig(n, l))
	if err != nil {
		return err
	}
	want := ctx.Mul(x, y)
	fmt.Printf("behavioural: Mont(x,y) = %s  (%d clock cycles = 3l+4)\n", res.Big().Text(16), cycles)
	fmt.Printf("reference:   Mont(x,y) = %s  (Algorithm 2, math/big)\n", want.Text(16))
	if res.Big().Cmp(want) != 0 {
		fmt.Printf("NOTE: mismatch — with the faithful variant this demonstrates the\n")
		fmt.Printf("      leftmost-cell overflow hazard (see EXPERIMENTS.md); dropped carries: %d\n",
			c.DroppedCarries())
	}

	if !gate && vcdPath == "" {
		return nil
	}

	nl := logic.New()
	p, err := mmmc.BuildNetlist(nl, l, variant)
	if err != nil {
		return err
	}
	sim, err := logic.Compile(nl)
	if err != nil {
		return err
	}
	var rec *wave.Recorder
	if vcdPath != "" {
		f, err := os.Create(vcdPath)
		if err != nil {
			return err
		}
		defer f.Close()
		var sigs []logic.Signal
		for j := range p.Array.T {
			sigs = append(sigs, p.Array.T[j])
		}
		sigs = append(sigs, p.Done, p.Array.M, p.Array.Phase)
		rec, err = wave.NewRecorder(f, "mmmc", nl, sim, sigs)
		if err != nil {
			return err
		}
		defer rec.Close()
	}

	sim.SetMany(p.XBus, bits.FromBig(x, l+1))
	sim.SetMany(p.YBus, bits.FromBig(y, l+1))
	sim.SetMany(p.NBus, bits.FromBig(n, l))
	sim.Set(p.Start, 1)
	sim.Step()
	sim.Set(p.Start, 0)
	gateCycles := 0
	for sim.Get(p.Done) == 0 {
		if rec != nil {
			if err := rec.Snapshot(); err != nil {
				return err
			}
		}
		sim.Step()
		gateCycles++
		if gateCycles > 4*l+16 {
			return fmt.Errorf("gate-level simulation did not complete")
		}
	}
	gateRes := sim.GetVec(p.Result)
	fmt.Printf("gate-level:  Mont(x,y) = %s  (%d clock cycles, %d gates, %d FFs)\n",
		gateRes.Big().Text(16), gateCycles, nl.NumGates(), nl.NumDFFs())
	if vcdPath != "" {
		fmt.Printf("waveform written to %s\n", vcdPath)
	}
	return nil
}

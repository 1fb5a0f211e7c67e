// Command emit exports the reproduced design back toward a real FPGA
// flow: it builds the gate-level netlist (systolic array alone or the
// complete MMM circuit), prints the census, timing and Virtex-E mapping
// summary, and optionally writes structural Verilog.
//
// Usage:
//
//	emit [-l 32] [-unit array|mmmc] [-variant guarded|faithful] [-o out.v]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/expo"
	"repro/internal/fpga"
	"repro/internal/logic"
	"repro/internal/mmmc"
	"repro/internal/systolic"
	"repro/internal/verilog"
)

func main() {
	l := flag.Int("l", 32, "modulus bit length")
	unit := flag.String("unit", "mmmc", "what to build: array, mmmc or expo")
	variantName := flag.String("variant", "faithful", "cell variant: faithful (paper) or guarded")
	out := flag.String("o", "", "write structural Verilog to this file")
	dot := flag.String("dot", "", "write a Graphviz DOT rendering to this file (small netlists only)")
	flag.Parse()

	if err := run(*l, *unit, *variantName, *out, *dot); err != nil {
		fmt.Fprintln(os.Stderr, "emit:", err)
		os.Exit(1)
	}
}

func run(l int, unit, variantName, out, dot string) error {
	variant, err := systolic.ParseVariant(variantName)
	if err != nil {
		return err
	}

	nl := logic.New()
	moduleName := fmt.Sprintf("%s_l%d_%s", unit, l, variant)
	switch unit {
	case "array":
		p, err := systolic.BuildArrayNetlist(nl, l, variant)
		if err != nil {
			return err
		}
		for _, tq := range p.T {
			nl.MarkOutput(tq, "")
		}
	case "mmmc":
		p, err := mmmc.BuildNetlist(nl, l, variant)
		if err != nil {
			return err
		}
		for _, r := range p.Result {
			nl.MarkOutput(r, "")
		}
	case "expo":
		if _, err := expo.BuildExpoNetlist(nl, l, variant); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown unit %q", unit)
	}

	cen := nl.Census()
	fmt.Printf("unit %s, l = %d, variant = %s\n", unit, l, variant)
	fmt.Printf("census: %s\n", cen)
	if unit == "array" && variant == systolic.Faithful {
		fmt.Printf("paper's Fig. 2 formula:  %d XOR + %d AND + %d OR gates, %d flip-flops\n",
			5*l-3, 7*l-7, 4*l-5, 4*l)
		fmt.Printf("this decomposition:      %d XOR + %d AND + %d OR gates (FA = 2XOR+2AND+1OR)\n",
			5*l-2, 7*l-4, 2*l-1)
	}

	rep, err := logic.AnalyzeTiming(nl, logic.UnitDelays)
	if err != nil {
		return err
	}
	fmt.Printf("critical path: %d gate levels (independent of l)\n", rep.CriticalLevels)

	mr, err := fpga.VirtexE.Map(nl)
	if err != nil {
		return err
	}
	fmt.Printf("Virtex-E mapping: %s\n", mr)

	if dot != "" {
		f, err := os.Create(dot)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := logic.WriteDOT(f, nl, moduleName, 4000); err != nil {
			return err
		}
		fmt.Printf("DOT graph written to %s\n", dot)
	}
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := verilog.Emit(f, moduleName, nl); err != nil {
			return err
		}
		fmt.Printf("Verilog written to %s\n", out)
	}
	return nil
}

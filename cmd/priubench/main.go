// Command priubench runs the reproduction experiments for the PrIU paper's
// tables and figures.
//
// Usage:
//
//	priubench -list
//	priubench -exp fig1a [-scale 0.5]
//	priubench -exp all   [-scale 0.25]
//
// Each experiment prints paper-style rows (deletion-rate sweeps of update
// times, memory tables, accuracy/similarity tables). scale ∈ (0,1] shrinks
// the workloads proportionally for quicker runs; EXPERIMENTS.md records the
// scale used for the committed results.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/priu/bench"
)

func main() {
	var (
		exp   = flag.String("exp", "", "experiment id to run (or \"all\")")
		scale = flag.Float64("scale", 1.0, "workload scale factor in (0,1]")
		list  = flag.Bool("list", false, "list available experiments")
	)
	flag.Parse()

	if *list || *exp == "" {
		fmt.Println("available experiments:")
		for _, id := range bench.IDs() {
			fmt.Printf("  %-18s %s\n", id, bench.Registry[id].Description)
		}
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}
	if *scale <= 0 || *scale > 1 {
		fmt.Fprintf(os.Stderr, "priubench: scale %v out of (0,1]\n", *scale)
		os.Exit(2)
	}
	ids := []string{*exp}
	if *exp == "all" {
		ids = bench.IDs()
	}
	for _, id := range ids {
		e, ok := bench.Registry[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "priubench: unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
		fmt.Printf("== %s: %s ==\n", e.ID, e.Description)
		if err := e.Run(os.Stdout, *scale); err != nil {
			fmt.Fprintf(os.Stderr, "priubench: %s failed: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}

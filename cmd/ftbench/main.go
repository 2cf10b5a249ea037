// Command ftbench regenerates the paper's figures and tables.
//
// Usage:
//
//	ftbench            # run every experiment
//	ftbench -exp T1    # run one experiment by id
//	ftbench -list      # list experiment ids
package main

import (
	"flag"
	"fmt"
	"os"

	"ftnet/internal/experiments"
)

func main() {
	exp := flag.String("exp", "", "experiment id (F1..F5, T1..T6, S1..S6, M1..M3, A1..A4); empty = all")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, e := range experiments.AllExtended() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	run := experiments.AllExtended()
	if *exp != "" {
		e, ok := experiments.ByID(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "ftbench: unknown experiment %q (try -list)\n", *exp)
			os.Exit(2)
		}
		run = []experiments.Experiment{e}
	}
	for _, e := range run {
		fmt.Printf("==== %s: %s ====\n", e.ID, e.Title)
		if err := e.Run(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "ftbench: %s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}

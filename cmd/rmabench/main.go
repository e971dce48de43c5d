// Command rmabench regenerates every table and figure of the paper's
// evaluation (Section 8). Each experiment prints the same rows/series the
// paper reports, at the scaled-down sizes each experiment in
// internal/bench sets (-quick shrinks them further).
//
//	rmabench -list             enumerate experiments
//	rmabench -run tab5         run one experiment
//	rmabench -run fig15a,tab7  run several
//	rmabench -all              run everything
//	rmabench -quick            reduced sizes (smoke test)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	list := flag.Bool("list", false, "list experiments")
	run := flag.String("run", "", "comma-separated experiment ids")
	all := flag.Bool("all", false, "run all experiments")
	quick := flag.Bool("quick", false, "reduced sizes for a fast smoke run")
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-8s %s\n         scaled: %s\n", e.ID, e.Title, e.Scaled)
		}
		return
	}

	var ids []string
	switch {
	case *all:
		for _, e := range bench.Experiments() {
			ids = append(ids, e.ID)
		}
	case *run != "":
		ids = strings.Split(*run, ",")
	default:
		flag.Usage()
		os.Exit(2)
	}

	for _, id := range ids {
		e, ok := bench.Lookup(strings.TrimSpace(id))
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
			os.Exit(1)
		}
		fmt.Printf("=== %s — %s\n", e.ID, e.Title)
		fmt.Printf("    scaled: %s\n", e.Scaled)
		t0 := time.Now()
		if err := e.Run(os.Stdout, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("    (%s elapsed)\n\n", time.Since(t0).Round(time.Millisecond))
	}
}

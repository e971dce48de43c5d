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
//	rmabench -json BENCH_1.json  measure the kernel micro-suite and write
//	                             a machine-readable results file (op,
//	                             size, ns/op, allocs/op); combine with
//	                             -quick for a fast smoke measurement
//	rmabench -load 4x8         load-generator mode: 4 tenants x 8
//	                           concurrent connections repeating the
//	                           serving statement mix against one shared
//	                           DB, reporting per-tenant p50/p99 latency
//	                           and the plan-cache hit rate, cached and
//	                           cache-off (-stmts sets the per-connection
//	                           statement count)
package main

import (
	"expvar"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/exec"
)

func main() {
	// Per-tenant memory metrics (live/peak bytes, pool hit rates) of the
	// default governor, published for scraping when the process exposes
	// /debug/vars — the same surface rmacli's \stats prints.
	expvar.Publish("rma.memory", expvar.Func(func() any { return exec.Metrics() }))
	list := flag.Bool("list", false, "list experiments")
	run := flag.String("run", "", "comma-separated experiment ids")
	all := flag.Bool("all", false, "run all experiments")
	quick := flag.Bool("quick", false, "reduced sizes for a fast smoke run")
	jsonOut := flag.String("json", "", "measure the kernel micro-suite and write a BENCH_<n>.json results file to this path")
	load := flag.String("load", "", "load-generator mode: NxM runs N tenants x M concurrent connections against one shared DB (e.g. -load 4x8)")
	stmts := flag.Int("stmts", 24, "statements per connection in -load mode")
	flag.Parse()

	if *load != "" {
		var n, m int
		if _, err := fmt.Sscanf(*load, "%dx%d", &n, &m); err != nil || n < 1 || m < 1 {
			fmt.Fprintf(os.Stderr, "bad -load %q, want NxM (e.g. 4x8)\n", *load)
			os.Exit(2)
		}
		o := bench.LoadOptions{Tenants: n, Conns: m, Stmts: *stmts, Rows: 1 << 15}
		if *quick {
			o.Rows = 1 << 12
		}
		for _, cache := range []bool{true, false} {
			o.Cache = cache
			t0 := time.Now()
			r, err := bench.RunLoad(o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "load failed: %v\n", err)
				os.Exit(1)
			}
			bench.PrintLoadReport(os.Stdout, o, r)
			fmt.Printf("    (%s elapsed)\n\n", time.Since(t0).Round(time.Millisecond))
		}
		return
	}

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-8s %s\n         scaled: %s\n", e.ID, e.Title, e.Scaled)
		}
		return
	}

	if *jsonOut != "" {
		fmt.Printf("=== kernel micro-suite -> %s\n", *jsonOut)
		t0 := time.Now()
		if err := bench.WriteKernelReport(*jsonOut, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "kernel suite failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("    (%s elapsed)\n\n", time.Since(t0).Round(time.Millisecond))
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
		if *jsonOut != "" {
			return
		}
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

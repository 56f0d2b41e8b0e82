// Command fastbench regenerates the paper's evaluation: every table and
// figure of Section IV, plus the ablation sweeps. Run it with no flags to
// reproduce everything at the default scale, or select one experiment:
//
//	fastbench -exp fig6
//	fastbench -exp all -scale 10000 -queries 25
//
// Experiment IDs, in paper order: table1, table2, fig3, fig4, table3,
// table4, fig5, fig6, fig7, fig8a, fig8b, ablation (-list prints them with
// titles). The repository's own subsystems — serving, caching, snapshots,
// the cluster and disk tiers — are measured by the benchmark in bench/
// (BENCHMARK.json), not here.
//
// For performance work, -cpuprofile and -memprofile write standard pprof
// profiles of the selected experiments:
//
//	fastbench -exp fig7 -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/fastrepro/fast/internal/experiments"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment ID to run, or 'all'")
		scale      = flag.Int("scale", 20000, "downscale factor for the paper's photo counts")
		queries    = flag.Int("queries", 15, "real queries per accuracy cell")
		seed       = flag.Int64("seed", 42, "workload seed")
		list       = flag.Bool("list", false, "list experiment IDs and exit")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()

	if *list {
		for _, ex := range experiments.All() {
			fmt.Printf("%-10s %s\n", ex.ID, ex.Title)
		}
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fastbench: creating CPU profile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "fastbench: starting CPU profile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	env := experiments.NewEnv(experiments.Options{
		Scale:   *scale,
		Queries: *queries,
		Seed:    *seed,
		Out:     os.Stdout,
	})

	var toRun []experiments.Experiment
	if *exp == "all" {
		toRun = experiments.All()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			ex, err := experiments.ByID(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			toRun = append(toRun, ex)
		}
	}

	start := time.Now()
	for _, ex := range toRun {
		t0 := time.Now()
		if err := ex.Run(env); err != nil {
			fmt.Fprintf(os.Stderr, "fastbench: %s failed: %v\n", ex.ID, err)
			os.Exit(1)
		}
		fmt.Printf("\n[%s completed in %v]\n", ex.ID, time.Since(t0).Round(time.Millisecond))
	}
	fmt.Printf("\nall experiments completed in %v\n", time.Since(start).Round(time.Millisecond))

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fastbench: creating heap profile: %v\n", err)
			os.Exit(1)
		}
		runtime.GC() // settle allocations so the profile reflects live data
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "fastbench: writing heap profile: %v\n", err)
			os.Exit(1)
		}
		f.Close()
	}
}

// Command dockbench regenerates the paper's evaluation artifacts:
// Tables 1-3 and Figures 5-11 of "Exploring Large Scale
// Receptor-Ligand Pairs in Molecular Docking Workflows in HPC Clouds"
// (IPPS 2014).
//
//	dockbench -exp all          # every table and figure (minutes)
//	dockbench -exp f7           # the TET scalability curve
//	dockbench -exp t3 -quick    # reduced workload (seconds)
//	dockbench -exp kernels      # docking kernel microbenchmarks,
//	                            # also written to -benchout as JSON
//	dockbench -exp search       # conformational-search benchmarks
//	                            # (workspace + parallel chains), also
//	                            # written to -benchout as JSON
//	dockbench -exp prov         # provenance-store ingest/close/query
//	                            # benchmarks, also written to
//	                            # -benchout as JSON
//	dockbench -exp campaigns    # 1 vs 4 concurrent campaigns through
//	                            # the resident Manager (wall-clock +
//	                            # fairness), also -benchout as JSON
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

// jsonReport is the common surface of the benchmark experiments that
// emit a machine-readable artifact next to their printed table.
type jsonReport interface {
	String() string
	JSON() ([]byte, error)
}

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id: t1, t2, t3, f5..f11, kernels, search, prov, campaigns or all")
		quick    = flag.Bool("quick", false, "reduced workloads (for smoke runs)")
		benchout = flag.String("benchout", "auto",
			"JSON output path for -exp kernels/search/prov/campaigns; \"auto\" picks BENCH_<exp>.json, empty skips")
	)
	flag.Parse()
	s := &experiments.Suite{Quick: *quick}

	var rep jsonReport
	var err error
	switch *exp {
	case "kernels":
		rep, err = s.Kernels()
	case "search":
		rep, err = s.Search()
	case "prov":
		rep, err = s.Prov()
	case "campaigns":
		rep, err = s.Campaigns()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dockbench:", err)
		os.Exit(1)
	}
	if rep != nil {
		fmt.Print(rep.String())
		out := *benchout
		if out == "auto" {
			out = "BENCH_" + *exp + ".json"
		}
		if out != "" {
			js, err := rep.JSON()
			if err == nil {
				err = os.WriteFile(out, append(js, '\n'), 0o644)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "dockbench:", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", out)
		}
		return
	}
	out, err := s.ByName(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dockbench:", err)
		os.Exit(1)
	}
	fmt.Print(out)
}

// Command benchmark is the repository's one repeatable benchmark of the
// verified-lookup stack: four workloads driven only through the entry
// points production callers use, every result checked against a plaintext
// oracle, end-to-end metrics from an untraced run and per-layer metrics
// from a traced run plus a layer ladder. See README.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload in this process and print its result as the last line; empty runs all four, each run in a child process")
		seed     = flag.Int64("seed", 1, "seed of every generator: rows, indices, weights, Zipf streams, rotation contents")
		seconds  = flag.Float64("seconds", runSeconds, "measured seconds per run, split over 6 slices")
		trace    = flag.Int("trace", 0, "with -workload: 0 = untraced end-to-end run, 1 = traced run and layer ladder")
		out      = flag.String("out", ".bench_build/out", "directory for trace-<workload>.json")
		sets     = flag.Int("sets", 1, "without -workload: untraced sets to run (set k uses seed+k); 2 or more prints their agreement against the bounds and exits non-zero on any excess")
		smoke    = flag.Bool("smoke", false, "tiny tables, one 300 ms slice: exercises every path, measures nothing")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	ctx := context.Background()
	if *workload == "" {
		os.Exit(runAll(ctx, *seed, *seconds, *sets, *out, *smoke))
	}
	spec := findWorkload(*workload)
	if spec == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	rep, err := runOne(ctx, spec, *seed, *seconds, *trace == 1, *out, *smoke, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if err := rep.printResultLine(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !rep.Correct {
		// The table above is on stdout; whoever keeps only stderr still
		// needs to see why the run was refused.
		fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %d of %d ops failed (ceiling %g of attempted)\n",
			spec.Name, *seed, rep.Failed, rep.Attempted, spec.FailCeiling)
		for _, e := range rep.Errors {
			fmt.Fprintln(os.Stderr, "benchmark:   error:", e)
		}
		os.Exit(1)
	}
}

// Command secndp-bench regenerates the tables and figures of the SecNDP
// paper's evaluation (HPCA 2022, §VII). With no flags it runs everything
// at full scale; -exp selects one artifact; -quick shrinks workloads for a
// fast smoke run.
//
//	secndp-bench                 # all experiments, full scale
//	secndp-bench -exp table3     # just Table III
//	secndp-bench -quick -exp fig7
//	secndp-bench -exp table3 -format csv
//	secndp-bench -list
//
// The runtime's performance gates are Go tests (gates_test.go at the
// repository root, `make gates`); the repository benchmark is benchmark/.
package main

import (
	"flag"
	"fmt"
	"os"

	"secndp/internal/experiments"
)

func main() {
	var (
		exp    = flag.String("exp", "", "experiment id (see -list); empty = all")
		quick  = flag.Bool("quick", false, "reduced workload sizes for a fast run")
		seed   = flag.Int64("seed", 1, "trace and page-mapping seed")
		list   = flag.Bool("list", false, "list experiment ids and exit")
		format = flag.String("format", "text", "output format: text | csv")
	)
	flag.Parse()
	if *format != "text" && *format != "csv" {
		fmt.Fprintf(os.Stderr, "secndp-bench: unknown format %q\n", *format)
		os.Exit(2)
	}
	if *list {
		for _, e := range experiments.Registry() {
			fmt.Printf("%-8s %s\n", e.ID, e.Description)
		}
		return
	}

	opts := experiments.Options{Quick: *quick, Seed: *seed}
	if *exp == "" {
		if err := experiments.RunAll(opts, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "secndp-bench:", err)
			os.Exit(1)
		}
		return
	}
	e, err := experiments.Find(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "secndp-bench:", err)
		os.Exit(1)
	}
	res, err := e.Run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "secndp-bench:", err)
		os.Exit(1)
	}
	if *format == "csv" {
		if err := experiments.WriteCSV(os.Stdout, res); err != nil {
			fmt.Fprintln(os.Stderr, "secndp-bench:", err)
			os.Exit(1)
		}
		return
	}
	fmt.Println(res.Format())
}

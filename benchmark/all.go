package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// runOne performs one run in this process and prints its table to w.
func runOne(ctx context.Context, spec *workloadSpec, seed int64, seconds float64, traced bool, out string, smoke bool, w io.Writer) (*report, error) {
	cfg := defaultConfig(seconds)
	if smoke {
		cfg = smokeConfig()
		s := spec.smoke()
		spec = &s
	}
	cfg.outDir = out
	env := readEnvironment(seed, cfg)
	env.print(w)
	run := runUntraced
	if traced {
		run = runTraced
	}
	rep, err := run(ctx, spec, seed, cfg)
	if err != nil {
		return nil, err
	}
	rep.print(w, env)
	return rep, nil
}

// runChild performs one run in a child process — exactly what the driver
// does, so peak RSS and allocation counts are the run's own — passes its
// table through and returns its result line.
func runChild(ctx context.Context, workload string, seed int64, seconds float64, traced bool, out string, smoke bool) (resultLine, error) {
	var res resultLine
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	args := []string{"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", trace, "--out", out}
	if smoke {
		args = append(args, "--smoke")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	lines := bytes.Split(bytes.TrimRight(stdout, "\n"), []byte("\n"))
	last := lines[len(lines)-1]
	if jerr := json.Unmarshal(last, &res); jerr == nil {
		lines = lines[:len(lines)-1]
	} else if err == nil {
		err = fmt.Errorf("no result line: %w", jerr)
	}
	os.Stdout.Write(append(bytes.Join(lines, []byte("\n")), '\n'))
	if err != nil {
		return res, fmt.Errorf("%s seed %d trace %s: %w", workload, seed, trace, err)
	}
	return res, nil
}

// runAll is the whole benchmark: sets untraced runs of every workload
// (set k on seed+k, back to back), then one traced run of each. With two
// or more sets it prints how well they agree and returns non-zero if any
// end-to-end metric disagrees by more than its bound.
func runAll(ctx context.Context, seed int64, seconds float64, sets int, out string, smoke bool) int {
	status := 0
	values := map[string]map[string][]float64{} // workload -> metric -> one value per set
	for k := 0; k < sets; k++ {
		for _, w := range workloads {
			res, err := runChild(ctx, w.Name, seed+int64(k), seconds, false, out, smoke)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				status = 1
				continue
			}
			if values[w.Name] == nil {
				values[w.Name] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				values[w.Name][name] = append(values[w.Name][name], m.Value)
			}
		}
	}
	for _, w := range workloads {
		if _, err := runChild(ctx, w.Name, seed, seconds, true, out, smoke); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			status = 1
		}
	}
	if sets >= 2 && !printAgreement(os.Stdout, values, sets) {
		status = 1
	}
	return status
}

// disagreement is how far apart a metric's per-set values are, as a share
// of their median: for two sets their relative difference, for more the
// quartile spread the acceptance rule uses.
func disagreement(xs []float64) float64 {
	if len(xs) == 2 {
		if xs[0] == 0 {
			return 0
		}
		return math.Abs(xs[1]-xs[0]) / math.Abs(xs[0])
	}
	return quartileSpread(xs)
}

// printAgreement reports, per end-to-end metric and workload, the sets'
// values, their disagreement and the bound; false if any exceeds it.
func printAgreement(w io.Writer, values map[string]map[string][]float64, sets int) bool {
	ok := true
	fmt.Fprintf(w, "\n== self-agreement over %d sets (disagreement: relative difference for 2 sets, quartile spread / median for more)\n", sets)
	for _, wl := range workloads {
		for _, m := range endToEnd {
			xs := values[wl.Name][m.Name]
			if len(xs) != sets {
				fmt.Fprintf(w, "%-14s %-24s missing from %d of %d sets\n", wl.Name, m.Name, sets-len(xs), sets)
				ok = false
				continue
			}
			d := disagreement(xs)
			verdict := "ok"
			if d > m.Bound {
				verdict, ok = "EXCESS", false
			}
			fmt.Fprintf(w, "%-14s %-24s median %14.4f %-6s disagreement %6.2f%%  bound %5.1f%%  %s\n",
				wl.Name, m.Name, median(xs), m.Unit, 100*d, 100*m.Bound, verdict)
		}
	}
	return ok
}

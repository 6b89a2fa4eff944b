package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
)

// environment is what a reader needs to judge a run's numbers.
type environment struct {
	Seed       int64
	Slices     int
	NumCPU     int
	GOMAXPROCS int
	GoVersion  string
	CPUModel   string
	LoadAvg    string
	// Busy is set when the 1-minute load average at start exceeds half the
	// CPUs: every metric line then carries a warning rather than the
	// spread silently widening.
	Busy bool
}

func readEnvironment(seed int64, cfg runConfig) environment {
	env := environment{
		Seed: seed, Slices: cfg.slices,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", LoadAvg: "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		env.LoadAvg = strings.TrimSpace(string(data))
		var one float64
		if _, err := fmt.Sscan(env.LoadAvg, &one); err == nil {
			env.Busy = one > float64(env.NumCPU)/2
		}
	}
	return env
}

func (e environment) print(w io.Writer) {
	fmt.Fprintf(w, "seed %d  slices %d  nproc %d  GOMAXPROCS %d  %s  cpu %q  loadavg %s\n",
		e.Seed, e.Slices, e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.CPUModel, e.LoadAvg)
	if e.Busy {
		fmt.Fprintf(w, "WARNING: load average above nproc/2 at start; timings below are marked [busy]\n")
	}
}

// metricsOf lists the metric definitions a run of this kind reports.
func metricsOf(traced bool) []metricSpec {
	if traced {
		return perLayer
	}
	return endToEnd
}

// print writes every metric by name with unit, median and the range
// across slices, then the failure accounting.
func (r *report) print(w io.Writer, env environment) {
	kind := "untraced (end-to-end)"
	if r.Traced {
		kind = "traced (per-layer)"
	}
	fmt.Fprintf(w, "\n== %s  %s  seed %d\n", r.Workload, kind, r.Seed)
	busy := ""
	if env.Busy {
		busy = "  [busy]"
	}
	for _, m := range metricsOf(r.Traced) {
		s, ok := r.Metrics[m.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("%-36s %16.4f %-6s", m.Name, s.Median, m.Unit)
		if s.N > 1 {
			line += fmt.Sprintf("  min %.4f  max %.4f  n=%d", s.Min, s.Max, s.N)
		}
		fmt.Fprintln(w, line+busy)
		if raw, ok := r.Raw[m.Name]; ok {
			fmt.Fprintf(w, "    raw, before calibration          %16.4f %-6s  min %.4f  max %.4f\n", raw.Median, m.Unit, raw.Min, raw.Max)
		}
	}
	if sp, ok := r.Raw["machine_speed"]; ok {
		fmt.Fprintf(w, "machine speed %.3f of the reference (min %.3f max %.3f): timing metrics above are scaled by it\n", sp.Median, sp.Min, sp.Max)
	}
	fmt.Fprintf(w, "attempted %d  failed %d  correct %v\n", r.Attempted, r.Failed, r.Correct)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	for _, f := range r.Flags {
		fmt.Fprintf(w, "  flag: %s\n", f)
	}
}

// resultLine is the driver's contract: the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) resultLine() resultLine {
	out := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	for _, m := range metricsOf(r.Traced) {
		out.Metrics[m.Name] = metricValue{Value: r.Metrics[m.Name].Median, Unit: m.Unit}
	}
	return out
}

func (r *report) printResultLine(w io.Writer) error {
	line := r.resultLine()
	for name, m := range line.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v: JSON cannot carry it", name, m.Value)
		}
	}
	return json.NewEncoder(w).Encode(line)
}

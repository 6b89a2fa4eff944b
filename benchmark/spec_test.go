package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from spec.go")

// benchmarkFile is BENCHMARK.json's schema: exactly these keys.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []fileWorkload `json:"workloads"`
	EndToEnd   []fileMetric   `json:"end_to_end"`
	PerLayer   []fileMetric   `json:"per_layer"`
}

type fileWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type fileMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func fromSpec() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, fileWorkload{Name: w.Name, Why: w.Why})
	}
	for _, m := range endToEnd {
		bound := m.Bound
		f.EndToEnd = append(f.EndToEnd, fileMetric{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: &bound})
	}
	for _, m := range perLayer {
		f.PerLayer = append(f.PerLayer, fileMetric{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	return f
}

// TestBenchmarkJSONMatchesSpec keeps the one file the driver reads and the
// definitions the program runs from saying the same thing. Run with
// -update after editing spec.go.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	want, err := json.MarshalIndent(fromSpec(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	const path = "../BENCHMARK.json"
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from spec.go; run go test -run TestBenchmarkJSONMatchesSpec -update", path)
	}
	if len(got) > 64<<10 {
		t.Errorf("%s is %d bytes, over 64 KiB", path, len(got))
	}
}

// TestSpecWithinContract checks the definitions against the limits the
// driver enforces before a single run.
func TestSpecWithinContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if w.Tables > maxTables {
			t.Errorf("workload %s: %d tables, at most %d", w.Name, w.Tables, maxTables)
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	setup := false
	for _, m := range endToEnd {
		use(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("no setup_s metric with unit s, better lower")
	}
	layers := map[string]bool{}
	for _, l := range selfLayers {
		layers[l] = true
	}
	layers["loadgen"], layers["telemetry"] = true, true
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if m.Doc == "" {
			t.Errorf("%s: no definition", m.Name)
		}
	}
	for _, m := range perLayer {
		use(m.Name)
		if !layers[m.Layer] || m.Moves == "" {
			t.Errorf("%s: layer %q, moves %q: every per-layer metric names its layer and what it should move", m.Name, m.Layer, m.Moves)
		}
	}
	for _, l := range selfLayers {
		if !seen[l+".self_us"] {
			t.Errorf("layer %s has no self_us metric", l)
		}
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", runSeconds)
	}
}

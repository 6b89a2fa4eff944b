package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestSmoke runs all four workloads, untraced and traced, on tiny tables
// for a fraction of a second each, and checks the contract of the output:
// every name BENCHMARK.json lists for the run's kind is emitted, nothing
// unlisted is, every op was checked and none failed, and the traced run
// leaves a span file behind.
func TestSmoke(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	out := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			kind := map[bool]string{false: "untraced", true: "traced"}[traced]
			t.Run(w.Name+"/"+kind, func(t *testing.T) {
				var table bytes.Buffer
				rep, err := runOne(context.Background(), &w, 7, 0, traced, out, true, &table)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
					t.Errorf("attempted %d failed %d correct %v errors %q", rep.Attempted, rep.Failed, rep.Correct, rep.Errors)
				}
				want := map[string]string{}
				for _, m := range metricsOf(traced) {
					want[m.Name] = m.Unit
				}
				for n := range rep.Metrics {
					if _, ok := want[n]; !ok {
						t.Errorf("emits %q, which BENCHMARK.json does not list", n)
					}
				}
				var line bytes.Buffer
				if err := rep.printResultLine(&line); err != nil {
					t.Fatal(err)
				}
				var res map[string]json.RawMessage
				if err := json.Unmarshal(line.Bytes(), &res); err != nil {
					t.Fatalf("result line is not one JSON object: %v", err)
				}
				if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
					t.Errorf("result line keys %v, want exactly correct, attempted, failed, metrics", res)
				}
				var metrics map[string]metricValue
				if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
					t.Fatal(err)
				}
				for n, unit := range want {
					if !name.MatchString(n) {
						t.Errorf("name %q", n)
					}
					if _, ok := rep.Metrics[n]; !ok {
						t.Errorf("%s is listed but was not measured", n)
					}
					if got, ok := metrics[n]; !ok || got.Unit != unit {
						t.Errorf("%s: result line has %+v (present %v), want unit %q", n, got, ok, unit)
					}
					if !bytes.Contains(table.Bytes(), []byte(n)) {
						t.Errorf("%s is missing from the printed table", n)
					}
				}
				if len(metrics) != len(want) {
					t.Errorf("result line has %d metrics, want %d", len(metrics), len(want))
				}
				if !traced {
					for _, m := range endToEnd {
						if metrics[m.Name].Value <= 0 {
							t.Errorf("%s = %v: end-to-end metrics are never 0", m.Name, metrics[m.Name].Value)
						}
					}
					return
				}
				data, err := os.ReadFile(filepath.Join(out, "trace-"+w.Name+".json"))
				if err != nil {
					t.Fatal(err)
				}
				var tf traceFile
				if err := json.Unmarshal(data, &tf); err != nil {
					t.Fatal(err)
				}
				roots, children := 0, 0
				for _, s := range tf.Spans {
					if s.End < s.Start || s.Name == "" || s.Layer == "" || s.ID == 0 {
						t.Fatalf("malformed span %+v", s)
					}
					if s.Name == rootName(w.Op) && s.Parent == 0 {
						roots++
					}
					if s.Parent != 0 {
						children++
					}
				}
				if roots == 0 || children == 0 {
					t.Errorf("trace has %d chain roots and %d child spans", roots, children)
				}
			})
		}
	}
}

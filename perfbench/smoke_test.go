package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// Each workload, built and driven for a short untraced and a short
// traced phase, must pass every output check and export a valid trace.
func TestWorkloadSmoke(t *testing.T) {
	for name, build := range workloads {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			w, _, err := build(7, dir)
			if err != nil {
				t.Fatal(err)
			}
			defer w.close()
			plain := newPhase(7, 1, 400*time.Millisecond, nil)
			if err := w.measure(plain); err != nil {
				t.Fatal(err)
			}
			traced := newPhase(7, 2, 400*time.Millisecond, newTracer())
			if err := w.measure(traced); err != nil {
				t.Fatal(err)
			}
			for _, p := range []*phase{plain, traced} {
				if p.attempted == 0 || p.failed != 0 {
					t.Fatalf("phase %d: %d of %d ops failed: %v", p.index, p.failed, p.attempted, p.failures)
				}
			}
			layers := inOrder(perLayer, w.layers(traced))
			if len(layers) != len(perLayer) {
				t.Fatalf("%d per-layer metrics, want %d", len(layers), len(perLayer))
			}
			if n, err := traced.tr.writeChrome(filepath.Join(dir, "trace.json")); err != nil || n == 0 {
				t.Fatalf("chrome export: %d spans, %v", n, err)
			}
			if traced.tr.badOps != 0 {
				t.Fatalf("per-op budget missed on %d ops (max residual %v)", traced.tr.badOps, traced.tr.maxRes)
			}
			if err := w.close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// BENCHMARK.json names exactly the metrics the command prints.
func TestBenchmarkJSONMatchesMetricSets(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []entry, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the command prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the command prints %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not a workload of the command", w.Name)
		}
	}
}

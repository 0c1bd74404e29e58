package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesCode: BENCHMARK.json declares exactly the
// workloads and metrics, with the units, that this program prints.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := loadBenchmarkFile(t)
	listed := map[string]bool{}
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
		if _, ok := unlisted[w.Name]; ok {
			t.Errorf("BENCHMARK.json lists workload %q, which the program marks unlisted", w.Name)
		}
		listed[w.Name] = true
	}
	for name := range workloads {
		if _, ok := unlisted[name]; !ok && !listed[name] {
			t.Errorf("workload %q is neither in BENCHMARK.json nor marked unlisted", name)
		}
	}
	check := func(kind string, declared map[string]string, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program prints %d", kind, len(declared), len(defs))
		}
		for _, d := range defs {
			unit, ok := declared[d.Name]
			if !ok {
				t.Errorf("%s: metric %s is printed but not declared", kind, d.Name)
			} else if unit != d.Unit {
				t.Errorf("%s: metric %s unit %q in BENCHMARK.json, %q printed", kind, d.Name, unit, d.Unit)
			}
		}
	}
	e2e := map[string]string{}
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	check("end_to_end", e2e, endToEnd)
	layer := map[string]string{}
	for _, m := range bf.PerLayer {
		layer[m.Name] = m.Unit
	}
	check("per_layer", layer, perLayer)
}

// TestEveryWorkloadPrintsItsMetrics runs every workload briefly, untraced
// and traced, and checks each run produces exactly its declared metrics
// with every result matching its reference.
func TestEveryWorkloadPrintsItsMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf := loadBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{Workload: name, Seed: 3, Seconds: 2, Traced: traced,
				TraceFile: filepath.Join(t.TempDir(), "trace.json")}
			out, err := workloads[name](cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			rep, err := buildReport(cfg, out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			if traced {
				if _, err := os.Stat(cfg.TraceFile); err != nil {
					t.Errorf("%s: no trace file: %v", name, err)
				}
			}
		}
	}
}

package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the tests compare with
// the program's own metric catalogue.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestCatalogueMatchesBenchmarkFile keeps BENCHMARK.json and the metrics
// the program prints in step.
func TestCatalogueMatchesBenchmarkFile(t *testing.T) {
	bf := readBenchmark(t)
	same := func(kind string, defs []metricDef, names, units []string) {
		if len(defs) != len(names) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(defs), len(names))
		}
		for i, d := range defs {
			if d.name != names[i] || d.unit != units[i] {
				t.Errorf("%s %d: program %s [%s], BENCHMARK.json %s [%s]",
					kind, i, d.name, d.unit, names[i], units[i])
			}
			if !nameRE.MatchString(d.name) {
				t.Errorf("%s: name %q breaks the grammar", kind, d.name)
			}
		}
	}
	var n, u []string
	for _, m := range bf.EndToEnd {
		n, u = append(n, m.Name), append(u, m.Unit)
	}
	same("end_to_end", endToEnd, n, u)
	n, u = nil, nil
	for _, m := range bf.PerLayer {
		n, u = append(n, m.Name), append(u, m.Unit)
	}
	same("per_layer", perLayer, n, u)
	listed := map[string]bool{}
	for _, w := range bf.Workloads {
		listed[w.Name] = true
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no driver", w.Name)
		}
	}
	for name := range workloads {
		if !listed[name] && !notInBenchmarkFile[name] {
			t.Errorf("workload %q is missing from BENCHMARK.json", name)
		}
	}
}

// notInBenchmarkFile are the workloads BENCHMARK.json leaves out (see
// the workloads map for why).
var notInBenchmarkFile = map[string]bool{"flow-churn": true}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that each run passes its output checks and prints every metric with
// its unit and a well-formed name.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binaries")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(os.PathSeparator),
		"./cmd/redplane-store", "./cmd/redplane-ctl")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			o := &options{workload: name, seed: 7, seconds: 1, trace: traced, smoke: true,
				bin: bin, work: t.TempDir()}
			res, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d",
					name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit || !nameRE.MatchString(d.name) {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v)", name, traced, d.name, m, ok)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, m.Value)
				}
			}
		}
	}
}

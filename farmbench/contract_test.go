package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"l2fuzz/internal/fleet"
)

// TestMain re-executes this test binary as a farm worker subprocess when
// the proc workload spawns it, as the benchmark binary does.
func TestMain(m *testing.M) {
	if os.Getenv(workerEnv) == "1" {
		if err := fleet.RunWorker(os.Stdin, os.Stdout); err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestMetricsMatchBenchmarkJSON pins the contract between the program
// and BENCHMARK.json: an untraced run emits exactly the end_to_end
// metrics and a traced run exactly the per_layer metrics, with the
// declared units, and every value is a finite number.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	w, err := workloadByName("proc-journal")
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	e2e, _, _, err := endToEnd(w, 1, time.Second, 0, tmp)
	if err != nil {
		t.Fatal(err)
	}
	compare(t, "end_to_end", spec.EndToEnd, e2e)
	layers, _, _, err := perLayer(w, 1, time.Second, tmp)
	if err != nil {
		t.Fatal(err)
	}
	compare(t, "per_layer", spec.PerLayer, layers)
}

func compare(t *testing.T, section string, want []declared, got []metric) {
	t.Helper()
	units := map[string]string{}
	for _, m := range got {
		if _, dup := units[m.name]; dup {
			t.Errorf("%s: metric %q emitted twice", section, m.name)
		}
		units[m.name] = m.unit
		if v := m.sum.Median; v != v || v > 1e300 || v < -1e300 {
			t.Errorf("%s: metric %q is not a finite number: %v", section, m.name, v)
		}
	}
	for _, d := range want {
		unit, ok := units[d.Name]
		if !ok {
			t.Errorf("%s: declared metric %q not emitted", section, d.Name)
			continue
		}
		if unit != d.Unit {
			t.Errorf("%s: metric %q emitted in %q, declared %q", section, d.Name, unit, d.Unit)
		}
		delete(units, d.Name)
	}
	for name := range units {
		t.Errorf("%s: emitted metric %q is not declared", section, name)
	}
}

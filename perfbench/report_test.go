package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// BENCHMARK.json at the repository root declares the workloads and metrics
// this program prints; the two must agree.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for n := range workloads {
		have = append(have, n)
	}
	sort.Strings(names)
	sort.Strings(have)
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, have)
	}
}

// The result line carries exactly the declared metrics of its mode, and an
// untraced run that missed one is an error rather than a silent zero.
func TestPublishedMetrics(t *testing.T) {
	r := newReport("w", 1, false)
	for _, d := range endToEnd[1:] {
		r.set(d.name, d.unit, 1, 1)
	}
	if _, err := r.published(); err == nil {
		t.Error("untraced report missing setup_s was published")
	}
	r.set("setup_s", "s", 0.5, 1)
	r.set("driver.requests", "count", 3, 3)
	pub, err := r.published()
	if err != nil {
		t.Fatal(err)
	}
	if len(pub) != len(endToEnd) {
		t.Errorf("published %d metrics, want %d", len(pub), len(endToEnd))
	}
	tr := newReport("w", 1, true)
	tr.set("driver.requests", "count", 3, 3)
	pub, err = tr.published()
	if err != nil {
		t.Fatal(err)
	}
	if len(pub) != len(perLayer) || pub["driver.requests"]["value"] != 3.0 {
		t.Errorf("traced report published %d metrics (driver.requests %v)", len(pub), pub["driver.requests"])
	}
}

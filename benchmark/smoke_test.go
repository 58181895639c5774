package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
)

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readContract(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	return c
}

func better(d metricDef) string {
	if d.higher {
		return "higher"
	}
	return "lower"
}

// The harness's own lists and BENCHMARK.json must say the same thing.
func TestContractMatchesHarness(t *testing.T) {
	c := readContract(t)
	if c.RunSeconds != scales["std"].seconds {
		t.Errorf("run_seconds %d, the std scale's window is %d", c.RunSeconds, scales["std"].seconds)
	}
	var names []string
	for _, w := range c.Workloads {
		names = append(names, w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads %v, harness has %v", names, workloadNames)
	}
	if len(c.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, harness has %d", len(c.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		m := c.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != better(d) || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, harness has %+v", i, m, d)
		}
	}
	if len(c.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, harness has %d", len(c.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		m := c.PerLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != better(d) {
			t.Errorf("per_layer[%d] = %+v, harness has %+v", i, m, d)
		}
	}
}

// lastLine parses the result line a run printed.
func lastLine(t *testing.T, stdout []byte) (correct bool, metrics map[string]struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var line struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if line.Attempted < 1 || line.Failed != 0 {
		t.Errorf("attempted %d, failed %d", line.Attempted, line.Failed)
	}
	return line.Correct, line.Metrics
}

// TestSmoke runs every workload and the traced pass at the smoke scale and
// holds the emitted names against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the shipped binaries end to end")
	}
	c := readContract(t)
	check := func(args []string, want []string, units map[string]string) {
		t.Helper()
		var stdout, stderr bytes.Buffer
		code := run(context.Background(), append([]string{"-scale", "smoke", "-seed", "3"}, args...), &stdout, &stderr)
		if code != 0 {
			t.Fatalf("%v: exit %d\n%s\n%s", args, code, stdout.Bytes(), stderr.Bytes())
		}
		correct, metrics := lastLine(t, stdout.Bytes())
		if !correct {
			t.Errorf("%v: not correct\n%s", args, stdout.Bytes())
		}
		var got []string
		for name, m := range metrics {
			got = append(got, name)
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%v: %s = %v", args, name, m.Value)
			}
			if m.Unit != units[name] {
				t.Errorf("%v: %s has unit %q, BENCHMARK.json says %q", args, name, m.Unit, units[name])
			}
		}
		sort.Strings(got)
		sort.Strings(want)
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%v: emitted metrics\n %v\nwant\n %v", args, got, want)
		}
	}
	var e2e, layer []string
	units := make(map[string]string)
	for _, m := range c.EndToEnd {
		e2e = append(e2e, m.Name)
		units[m.Name] = m.Unit
	}
	for _, m := range c.PerLayer {
		layer = append(layer, m.Name)
		units[m.Name] = m.Unit
	}
	for _, w := range c.Workloads {
		check([]string{"-workload", w.Name, "-trace", "0"}, e2e, units)
	}
	check([]string{"-workload", c.Workloads[0].Name, "-trace", "1"}, layer, units)
}

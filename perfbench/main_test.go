package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

type namedMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []namedMetric `json:"end_to_end"`
	PerLayer []namedMetric `json:"per_layer"`
}

// TestShortRunPrintsEveryMetric runs every workload of BENCHMARK.json for
// one second, untraced and traced, and checks the result lines: every
// metric named there printed with its unit and a finite value, the output
// checks passed, and both runs reporting the same report-set digest.
func TestShortRunPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for _, wl := range bf.Workloads {
		t.Run(wl.Name, func(t *testing.T) {
			var digests [2]string
			for traced, want := range [][]namedMetric{bf.EndToEnd, bf.PerLayer} {
				info, res := runOnce(t, wl.Name, traced)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("trace %d: correct=%v failed=%d attempted=%d", traced, res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace %d: printed %d metrics, BENCHMARK.json names %d", traced, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("trace %d: metric %s missing", traced, m.Name)
					case got.Unit != m.Unit:
						t.Errorf("trace %d: metric %s has unit %q, want %q", traced, m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("trace %d: metric %s = %v", traced, m.Name, got.Value)
					}
				}
				digests[traced], _ = info["digest"].(string)
			}
			if digests[0] == "" || digests[0] != digests[1] {
				t.Errorf("untraced digest %q, traced %q: tracing changed the report sets", digests[0], digests[1])
			}
		})
	}
}

// runOnce runs one workload for a second and returns its info object and
// its result line.
func runOnce(t *testing.T, workload string, traced int) (map[string]any, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", workload, "--seed", "7", "--seconds", "1", "--trace", []string{"0", "1"}[traced]}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%v: exit %d: %s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("%v: want an info line and a result line, got %q", args, stdout.String())
	}
	var info struct {
		Info map[string]any `json:"info"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &info); err != nil {
		t.Fatalf("info line: %v", err)
	}
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("result line: %v", err)
	}
	return info.Info, res
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// small shrinks every workload so a run takes seconds: fewer inputs, a
// shorter hit sequence and a smaller LRU, same generators and checks.
func small(t *testing.T) {
	saved := workloads
	t.Cleanup(func() { workloads = saved })
	workloads = append([]workload(nil), saved...)
	for i := range workloads {
		wl := &workloads[i]
		if wl.miss {
			wl.pool = 3
		} else {
			wl.pool, wl.seq, wl.entries = 32, 128, 8
		}
	}
}

// metricNames reads the metric names BENCHMARK.json declares.
func metricNames(t *testing.T) (endToEnd, perLayer []string) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// runOnce runs the benchmark in-process and decodes its last line.
func runOnce(t *testing.T, fl faults, args ...string) (int, result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append(args, "--out", filepath.Join(t.TempDir(), "records"))
	code := run(args, &stdout, &stderr, fl)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil && code != 2 {
		t.Fatalf("%v: last line %q: %v\nstderr:\n%s", args, lines[len(lines)-1], err, &stderr)
	}
	return code, res, stderr.String()
}

func keys(m map[string]metric) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func TestWorkloadsEndToEnd(t *testing.T) {
	small(t)
	endToEnd, perLayer := metricNames(t)
	for _, wl := range workloads {
		for trace, want := range map[string][]string{"0": endToEnd, "1": perLayer} {
			t.Run(wl.name+"/trace"+trace, func(t *testing.T) {
				code, res, stderr := runOnce(t, faults{}, "--workload", wl.name, "--seed", "7", "--seconds", "1", "--trace", trace)
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("exit %d, %+v\nstderr:\n%s", code, res, stderr)
				}
				for _, name := range want {
					if _, ok := res.Metrics[name]; !ok {
						t.Errorf("metric %s missing; have %v", name, keys(res.Metrics))
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json declares %d: %v", len(res.Metrics), len(want), keys(res.Metrics))
				}
			})
		}
	}
}

// TestFlippedVerdictFails shows that the verdict checks bite: with one
// input's independent answer inverted, that input's responses count as
// failed operations.
func TestFlippedVerdictFails(t *testing.T) {
	small(t)
	for _, w := range []string{"reach-sat", "adversity-cyclic", "hit-routed"} {
		code, res, stderr := runOnce(t, faults{flipOracle: true}, "--workload", w, "--seconds", "1")
		if code != 0 || res.Failed == 0 {
			t.Errorf("%s: exit %d, %+v: want failed operations\nstderr:\n%s", w, code, res, stderr)
		}
	}
}

// TestForcedMissFails empties one hit-routed worker before the timed
// window: its recomputed answers are failed operations, and the shape
// check rejects the run.
func TestForcedMissFails(t *testing.T) {
	small(t)
	code, res, stderr := runOnce(t, faults{forceMiss: true}, "--workload", "hit-routed", "--seconds", "1")
	if res.Failed == 0 || res.Correct || code == 0 {
		t.Fatalf("exit %d, %+v: want failed operations and an incorrect run\nstderr:\n%s", code, res, stderr)
	}
	if !strings.Contains(stderr, "recomputed") {
		t.Errorf("stderr names no recomputation:\n%s", stderr)
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "reach-sat", "--trace", "2"},
		{"--workload", "reach-sat", "--seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb, faults{}); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

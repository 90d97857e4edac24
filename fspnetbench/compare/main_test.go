package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) for each input.
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, [3]float64{1.75, 3.5, 5.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		got := quartiles(c.xs)
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
			}
		}
	}
}

func TestJudge(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(parent))
		for i, x := range parent {
			out[i] = x + d
		}
		return out
	}
	for _, c := range []struct {
		name   string
		change []float64
		higher bool
		bound  float64
		want   string
	}{
		{"same", shift(0.5), false, 0.1, "same"},
		{"faster", shift(-20), false, 0.1, "better"},
		{"slower beyond bound", shift(20), false, 0.1, "worse"},
		{"slower within bound", shift(5), false, 0.1, "same"},
		{"throughput drop", shift(-20), true, 0.1, "worse"},
		{"spread wider than bound", shift(1), false, 0.005, "unresolved"},
	} {
		if got := judge(parent, c.change, c.higher, c.bound).verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestRegressionExitCode(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"end_to_end":[{"name":"latency_ms","unit":"ms","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(sub string, i int, v float64) {
		d := filepath.Join(dir, sub)
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
		data, _ := json.Marshal(map[string]any{
			"workload": "w", "start": time.Unix(int64(i), 0), "attempted": 10, "correct": true,
			"metrics": map[string]any{"latency_ms": map[string]any{"value": v, "unit": "ms"}},
		})
		if err := os.WriteFile(filepath.Join(d, fmt.Sprintf("r%d.json", i)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		write("parent", i, 10+float64(i%3)*0.1)
		write("change", i, 13+float64(i%3)*0.1)
	}
	var out, errb bytes.Buffer
	if code := mainErr([]string{"-bench", bench, filepath.Join(dir, "parent"), filepath.Join(dir, "change")}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1; stdout:\n%s\nstderr:\n%s", code, &out, &errb)
	}
	if !strings.Contains(out.String(), "worse") {
		t.Errorf("no worse verdict in:\n%s", &out)
	}
	if code := mainErr([]string{"-bench", bench, filepath.Join(dir, "parent"), filepath.Join(dir, "parent")}, &out, &errb); code != 0 {
		t.Fatalf("parent against itself: exit %d, want 0", code)
	}
}

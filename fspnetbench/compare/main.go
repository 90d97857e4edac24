// Command compare judges two sets of fspnetbench runs — the parent
// commit's and a change's — metric by metric, with the direction and
// bound each end-to-end metric has in BENCHMARK.json.
//
//	go -C fspnetbench run ./compare -bench ../BENCHMARK.json PARENT_DIR CHANGE_DIR
//
// Each directory holds the run records fspnetbench wrote (--out). Runs of
// one workload are paired in start-time order, so the sets should be made
// alternately: parent, change, parent, change, … For every workload and
// metric the verdict is:
//
//   - better: the change wins at least 9 of every 10 pairs and the
//     medians differ by more than the parent's interquartile range;
//   - worse: the change's median is worse than the parent's by more than
//     the bound — a regression;
//   - unresolved: the parent's own interquartile range, as a share of its
//     median, is wider than the bound, so "no worse than the bound" cannot
//     be told from noise (unless every change run beats every parent run,
//     which is better);
//   - same: none of these.
//
// A change whose share of failed operations is higher than the parent's
// is worse on that workload. The command exits 1 on any regression and 2
// on bad input.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
	"time"
)

// benchmark is the part of BENCHMARK.json the comparison reads.
type benchmark struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// run is the part of a run record the comparison reads.
type run struct {
	Workload  string    `json:"workload"`
	Trace     bool      `json:"trace"`
	Start     time.Time `json:"start"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Correct   bool      `json:"correct"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "BENCHMARK.json", "path to BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: compare [-bench BENCHMARK.json] PARENT_DIR CHANGE_DIR")
		return 2
	}
	var b benchmark
	data, err := os.ReadFile(*benchPath)
	if err == nil {
		err = json.Unmarshal(data, &b)
	}
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	parent, err := load(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	change, err := load(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	regressed := false
	tw := tabwriter.NewWriter(stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median\tchange median\tchange\tparent spread\tbound\twins\tverdict")
	for _, w := range workloads(parent, change) {
		p, c := parent[w], change[w]
		if len(p) == 0 || len(c) == 0 {
			fmt.Fprintf(tw, "%s\t(all)\t%d runs\t%d runs\t\t\t\t\tunresolved\n", w, len(p), len(c))
			continue
		}
		if fp, fc := failedShare(p), failedShare(c); fc > fp {
			regressed = true
			fmt.Fprintf(tw, "%s\tfailed share\t%.6f\t%.6f\t\t\t\t\tworse\n", w, fp, fc)
		}
		for _, m := range b.EndToEnd {
			v := judge(values(p, m.Name), values(c, m.Name), m.Better == "higher", m.Bound)
			if v.verdict == "worse" {
				regressed = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g %s\t%.4g %s\t%+.1f%%\t%.1f%%\t%.0f%%\t%d/%d\t%s\n",
				w, m.Name, v.medP, m.Unit, v.medC, m.Unit, 100*v.rel, 100*v.spread, 100*m.Bound,
				v.wins, v.pairs, v.verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	if regressed {
		fmt.Fprintln(stdout, "regression: at least one metric is worse than its bound")
		return 1
	}
	return 0
}

// load reads every untraced run record in dir, grouped by workload and
// sorted by start time.
func load(dir string) (map[string][]run, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]run{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r run
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Trace || r.Workload == "" {
			continue
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s: run failed its checks; its numbers are not comparable", p)
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no untraced run records", dir)
	}
	for _, rs := range out {
		sort.Slice(rs, func(i, j int) bool { return rs[i].Start.Before(rs[j].Start) })
	}
	return out, nil
}

func workloads(a, b map[string][]run) []string {
	set := map[string]bool{}
	for w := range a {
		set[w] = true
	}
	for w := range b {
		set[w] = true
	}
	var ws []string
	for w := range set {
		ws = append(ws, w)
	}
	sort.Strings(ws)
	return ws
}

func failedShare(rs []run) float64 {
	var a, f int
	for _, r := range rs {
		a += r.Attempted
		f += r.Failed
	}
	if a == 0 {
		return 0
	}
	return float64(f) / float64(a)
}

func values(rs []run, name string) []float64 {
	var xs []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// judgement is one metric's comparison.
type judgement struct {
	medP, medC  float64
	rel         float64 // (change − parent) / parent, in the metric's own sign
	spread      float64 // parent IQR / parent median
	wins, pairs int
	verdict     string
}

func judge(p, c []float64, higher bool, bound float64) judgement {
	if len(p) == 0 || len(c) == 0 {
		return judgement{medP: math.NaN(), medC: math.NaN(), verdict: "unresolved"}
	}
	j := judgement{medP: median(p), medC: median(c)}
	j.rel = (j.medC - j.medP) / j.medP
	q := quartiles(p)
	iqr := q[2] - q[0]
	j.spread = iqr / j.medP
	better := func(x, y float64) bool { // x better than y
		if higher {
			return x > y
		}
		return x < y
	}
	j.pairs = min(len(p), len(c))
	for i := 0; i < j.pairs; i++ {
		if better(c[i], p[i]) {
			j.wins++
		}
	}
	worseBy := j.rel
	if higher {
		worseBy = -j.rel
	}
	cWorst, _ := ends(c, higher)
	_, pBest := ends(p, higher)
	allBetter := better(cWorst, pBest)
	switch {
	case j.wins*10 >= 9*j.pairs && math.Abs(j.medC-j.medP) > iqr && better(j.medC, j.medP):
		j.verdict = "better"
	case j.spread > bound && allBetter:
		j.verdict = "better"
	case j.spread > bound:
		j.verdict = "unresolved"
	case worseBy > bound:
		j.verdict = "worse"
	default:
		j.verdict = "same"
	}
	return j
}

// ends returns the worst and the best of xs in the metric's direction.
func ends(xs []float64, higher bool) (worst, best float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if higher {
		return s[0], s[len(s)-1]
	}
	return s[len(s)-1], s[0]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(xs, n=4), the
// "exclusive" method.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	var q [3]float64
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

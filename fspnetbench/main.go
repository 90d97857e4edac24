// Command fspnetbench is fspnet's benchmark. It drives the service tier
// (serve workers and, for the routed workload, a cluster router, each on
// a loopback listener inside this process) with a closed loop of
// clients, checks every verdict against a computation made apart from
// the program, and prints its metrics as one JSON object on the last
// line of standard output.
//
//	bash fspnetbench/run.sh --workload reach-sat --seed 1 --seconds 25 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 replays the same
// requests one at a time through each layer's public functions and
// reports per-layer metrics from recorded spans. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math/bits"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"fspnet/internal/verdictjson"
)

// workload is one traffic mix.
type workload struct {
	name string
	// miss workloads send a pool of distinct inputs to one worker whose
	// cache is emptied before every round, so every request computes.
	// The routed hit workload fills two workers once and then only hits.
	miss bool
	// fresh draws a new pool for every round, so a run's inputs are
	// hundreds of independent draws rather than one small sample; only
	// workloads with cheap oracles can afford it.
	fresh bool
	pool  int // inputs per round (the fill set for hit-routed)
	// clients is the closed loop's client count, at most the reference
	// host's two CPUs.
	clients int
	gen     func(r *rand.Rand, i int) (item, error)
	fits    func(item) bool
	// Hit-routed only: Zipf-skewed requests per round, and the worker
	// LRU size, smaller than each worker's share of the fill set so the
	// cold tail of the sequence reads through from the store.
	seq     int
	entries int
}

var workloads = []workload{
	{
		name: "reach-sat", miss: true, fresh: true, pool: 16, clients: 2,
		gen: func(r *rand.Rand, _ int) (item, error) { return satItem(r, 12) },
	},
	{
		name: "adversity-qbf", miss: true, fresh: true, pool: 8, clients: 2,
		gen: func(r *rand.Rand, _ int) (item, error) { return qbfItem(r, 4, 4) },
	},
	{
		name: "adversity-cyclic", miss: true, pool: 24, clients: 2,
		gen: func(r *rand.Rand, _ int) (item, error) { return cyclicQbfItem(r) },
	},
	{
		name: "hit-routed", pool: 256, seq: 1024, entries: 64, clients: 2,
		gen: fillItem,
		fits: func(it item) bool {
			return len(it.text) >= minFillBytes && len(it.text) <= maxFillBytes
		},
	},
}

// Run shape.
const (
	clients   = 2 // concurrency of fills and independent checks
	setupReps = 5 // set-ups per run; setup_s is their median
	zipfS     = 1.1
)

// faults lets the benchmark's own test show that its checks bite.
type faults struct {
	flipOracle bool // invert one predicate of every expected verdict
	forceMiss  bool // hit-routed: empty one worker's cache before timing
}

// source draws a workload's inputs from its seed. Generation is the
// benchmark's own work and is never timed.
type source struct {
	wl   *workload
	r    *rand.Rand
	seen map[string]bool // every request drawn so far
}

func (wl *workload) source(seed int64) *source {
	h := fnv.New64a()
	h.Write([]byte(wl.name))
	return &source{wl: wl, r: rand.New(rand.NewSource(seed ^ int64(h.Sum64()))), seen: map[string]bool{}}
}

// next draws the next pool: wl.pool inputs distinct from all drawn before.
func (s *source) next() ([]item, error) {
	items, err := distinct(s.wl.pool, s.seen, func(i int) (item, error) { return s.wl.gen(s.r, i) }, s.wl.fits)
	if err != nil {
		return nil, fmt.Errorf("%s inputs: %w", s.wl.name, err)
	}
	return items, nil
}

// order is the request sequence of one round over items: each input
// once on the miss workloads, a Zipf-skewed sequence for hit-routed.
func (s *source) order(items []item) []int {
	if s.wl.miss {
		return allOf(items)
	}
	// The few hottest ranks take a third of the requests, so which
	// networks hold them would set the run's cost more than anything
	// else the seed decides. Ranks therefore walk the fill set in
	// bit-reversed order of text size: each prefix of the ranking spreads
	// evenly over the sizes. The seed still draws the networks and the
	// Zipf sequence.
	bySize := allOf(items)
	sort.SliceStable(bySize, func(i, j int) bool { return len(items[bySize[i]].text) < len(items[bySize[j]].text) })
	width := bits.Len(uint(len(items) - 1))
	z := rand.NewZipf(s.r, zipfS, 1, uint64(len(items)-1))
	seq := make([]int, s.wl.seq)
	for i := range seq {
		seq[i] = bySize[bitReverse(z.Uint64(), width)%uint64(len(items))]
	}
	return seq
}

// bitReverse reverses the low n bits of x.
func bitReverse(x uint64, n int) uint64 {
	return bits.Reverse64(x) >> (64 - n)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the JSON artifact every run leaves under .bench_build/records.
type record struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    int               `json:"seconds"`
	Trace      bool              `json:"trace"`
	Commit     string            `json:"commit"`
	Start      time.Time         `json:"start"`
	Host       host              `json:"host"`
	Inputs     int               `json:"inputs"`
	Rounds     int               `json:"rounds"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Correct    bool              `json:"correct"`
	Problems   []string          `json:"problems,omitempty"` // failed shape checks
	Failures   []string          `json:"failures,omitempty"` // first few failed operations
	TailPct    float64           `json:"tailPercentile,omitempty"`
	TailN      int               `json:"tailSamples,omitempty"` // per window
	TailW      int               `json:"tailWindows,omitempty"`
	SetupS     []float64         `json:"setupSeconds,omitempty"`
	RoundRates []float64         `json:"roundRates,omitempty"` // requests per second of each timed round
	Metrics    map[string]metric `json:"metrics"`
	LayerTable []layerRow        `json:"layers,omitempty"`
	spans      []span            // traced run only; written beside the record
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, faults{}))
}

func run(args []string, stdout, stderr io.Writer, fl faults) int {
	fs := flag.NewFlagSet("fspnetbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 25, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = traced per-layer run")
	out := fs.String("out", filepath.Join(".bench_build", "records"), "directory for the run record")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintf(stderr, "fspnetbench: want --workload reach-sat|adversity-qbf|adversity-cyclic|hit-routed, --seconds ≥ 1, --trace 0|1\n")
		return 2
	}
	rec := record{
		Workload: wl.name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Commit: commit(), Start: time.Now().UTC(), Host: hostShape(),
	}
	// Store directories live beside the records, inside .bench_build.
	var work string
	err := os.MkdirAll(filepath.Dir(*out), 0o755)
	if err == nil {
		work, err = os.MkdirTemp(filepath.Dir(*out), "run-")
	}
	if err == nil {
		defer os.RemoveAll(work)
		if *trace == 1 {
			err = traced(wl, *seed, time.Duration(*seconds)*time.Second, work, &rec, fl)
		} else {
			err = timed(wl, *seed, time.Duration(*seconds)*time.Second, work, &rec, fl)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "fspnetbench:", err)
		return 1
	}
	rec.Correct = len(rec.Problems) == 0
	for _, p := range rec.Problems {
		fmt.Fprintln(stderr, "fspnetbench: shape check failed:", p)
	}
	for _, f := range rec.Failures {
		fmt.Fprintln(stderr, "fspnetbench: failed operation:", f)
	}
	if err := writeRecord(*out, &rec); err != nil {
		fmt.Fprintln(stderr, "fspnetbench:", err)
		return 1
	}
	if rec.TailN > 0 {
		fmt.Fprintf(stdout, "latency_tail_ms is p%.2f of %d samples (median of %d windows)\n", rec.TailPct, rec.TailN, rec.TailW)
	}
	line, err := json.Marshal(result{
		Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: rec.Metrics,
	})
	if err != nil {
		fmt.Fprintln(stderr, "fspnetbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rec.Correct {
		return 1
	}
	return 0
}

func writeRecord(dir string, rec *record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if rec.Trace {
		trace = 1
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d-%d", rec.Workload, rec.Seed, trace, rec.Start.UnixNano()))
	if len(rec.spans) > 0 {
		if err := writeSpans(base+".spans.jsonl", rec.spans); err != nil {
			return err
		}
	}
	return os.WriteFile(base+".json", append(data, '\n'), 0o644)
}

// newClient is the load generator's HTTP client: one idle connection
// kept per closed-loop client.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients + 1}}
}

// timed is the end-to-end run: set-up (measured, repeated), then whole
// rounds of the request list until the measured time reaches d, then the
// independent checks.
func timed(wl *workload, seed int64, d time.Duration, work string, rec *record, fl faults) error {
	src := wl.source(seed)
	items, err := src.next()
	if err != nil {
		return err
	}
	seq := src.order(items)
	rec.Inputs = len(items)
	c := newClient()
	defer c.Transport.(*http.Transport).CloseIdleConnections()

	var (
		t        *tier
		expected [][]byte // hit-routed: the exact bytes every hit must return
		bad      []bool   // hit-routed: inputs whose fill verdict failed
		wants    []want
	)
	defer func() {
		if t != nil {
			t.stop()
		}
	}()
	for rep := 0; rep < setupReps; rep++ {
		if t != nil {
			t.stop()
		}
		root, err := os.MkdirTemp(work, "tier-")
		if err != nil {
			return err
		}
		t0 := time.Now()
		var fill []outcome
		if wl.miss {
			t, err = newTier(root, 1, 0, false, nil)
			if err == nil {
				fill = runRound(c, t.entry(), items, seq, wl.clients)
			}
		} else {
			t, err = newTier(root, 2, wl.entries, true, nil)
			if err == nil {
				fill = runRound(c, t.entry(), items, allOf(items), clients)
				err = t.restartAll()
			}
		}
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		rec.SetupS = append(rec.SetupS, time.Since(t0).Seconds())
		for i, o := range fill {
			if o.err != nil {
				return fmt.Errorf("set-up request %d: %w", i, o.err)
			}
		}
		if !wl.miss && rep == 0 {
			// Fill-time verdicts are checked against the independent
			// answers; the timed hits must then repeat these bytes.
			if wants, err = oracles(items, fl); err != nil {
				return err
			}
			if expected, bad, err = hitBodies(items, fill, wants); err != nil {
				return err
			}
		}
	}
	// Set-up garbage is not the timed rounds' to collect.
	runtime.GC()
	if fl.forceMiss && !wl.miss {
		dir, err := t.storeDir(0)
		if err == nil {
			err = t.workers[0].restart(dir)
		}
		if err != nil {
			return err
		}
	}

	var (
		lat     []time.Duration
		elapsed time.Duration
		// Per-round rate, CPU and allocation per request: the run reports
		// their medians, so a burst of load from elsewhere on the host
		// moves a few rounds rather than the result.
		rates, cpus, allocs []float64
		seen                = make([]map[string]int, len(items)) // miss: record bytes → count
		before              counts
	)
	judgeSeen := func() error {
		if wants, err = oracles(items, fl); err != nil {
			return err
		}
		for i, bodies := range seen {
			for body, n := range bodies {
				if fail := checkBody([]byte(body), items[i].preds, wants[i]); fail != nil {
					rec.fail(n, fmt.Sprintf("input %d: %v", i, fail))
				}
			}
			seen[i] = nil
		}
		return nil
	}
	if !wl.miss {
		if before, err = t.counters(c); err != nil {
			return err
		}
	}
	for rec.Rounds == 0 || elapsed < d {
		if wl.fresh {
			if items, err = src.next(); err != nil {
				return err
			}
			rec.Inputs += len(items)
		}
		if wl.miss {
			if err := t.reset(); err != nil {
				return err
			}
		}
		u0 := readUsage()
		t0 := time.Now()
		outs := runRound(c, t.entry(), items, seq, wl.clients)
		dur := time.Since(t0)
		u1 := readUsage()
		elapsed += dur
		n := float64(len(seq))
		rates = append(rates, n/dur.Seconds())
		cpus = append(cpus, ms(u1.cpu-u0.cpu)/n)
		allocs = append(allocs, float64(u1.alloc-u0.alloc)/1024/n)
		rec.Rounds++
		for i, o := range outs {
			lat = append(lat, o.lat)
			rec.Attempted++
			if fail := checkOutcome(wl, o, seq[i], expected, bad, seen); fail != "" {
				rec.fail(1, fail)
			}
		}
		if wl.miss {
			// Every request of a round ran an analysis on a worker with an
			// empty cache: no hit, no shared run.
			st, err := t.counters(c)
			if err != nil {
				return err
			}
			if st.Hits != 0 || st.Deduped != 0 || st.Misses != int64(len(seq)) {
				rec.Problems = append(rec.Problems, fmt.Sprintf(
					"round %d: worker counted %d hits, %d deduped, %d misses; want 0, 0, %d",
					rec.Rounds, st.Hits, st.Deduped, st.Misses, len(seq)))
			}
		}
		if wl.fresh {
			// Cheap independent answers: check this round's inputs now
			// and let them go.
			if err := judgeSeen(); err != nil {
				return err
			}
		}
	}
	rss := peakRSSMB()
	if !wl.miss {
		after, err := t.counters(c)
		if err != nil {
			return err
		}
		if m := after.Misses - before.Misses; m != 0 {
			rec.Problems = append(rec.Problems, fmt.Sprintf("hit-routed recomputed %d verdicts in the timed window", m))
		}
	} else if !wl.fresh {
		// A fixed pool's independent answers are slow (the compose
		// backend); they are computed once, after the peak RSS is read.
		if err := judgeSeen(); err != nil {
			return err
		}
	}
	rec.RoundRates = rates
	p50, tl := latencyStats(lat)
	rec.TailPct, rec.TailN, rec.TailW = tl.pct, tl.samples, tl.windows
	rec.Metrics = map[string]metric{
		"verdicts_per_s":       {median(rates), "1/s"},
		"latency_p50_ms":       {ms(p50), "ms"},
		"latency_tail_ms":      {ms(tl.value), "ms"},
		"cpu_ms_per_verdict":   {median(cpus), "ms"},
		"alloc_kb_per_verdict": {median(allocs), "KB"},
		"peak_rss_mb":          {rss, "MB"},
		"setup_s":              {median(rec.SetupS), "s"},
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func allOf(items []item) []int {
	s := make([]int, len(items))
	for i := range s {
		s[i] = i
	}
	return s
}

// checkOutcome judges one timed response as it arrives. Hit-routed
// responses must equal their fill-time bytes exactly (which also proves
// they were served from the cache); miss responses must be computed,
// and their records are kept for the checks after the window.
func checkOutcome(wl *workload, o outcome, k int, expected [][]byte, bad []bool, seen []map[string]int) string {
	if o.err != nil {
		return fmt.Sprintf("input %d: %v", k, o.err)
	}
	if !wl.miss {
		if bad[k] {
			return fmt.Sprintf("input %d: verdict disagrees with the independent answer", k)
		}
		if !bytes.Equal(o.body, expected[k]) {
			return fmt.Sprintf("input %d: %v: got %s", k, errNotCached, o.body)
		}
		return ""
	}
	var r response
	if err := json.Unmarshal(o.body, &r); err != nil {
		return fmt.Sprintf("input %d: %v", k, err)
	}
	if r.Cached {
		return fmt.Sprintf("input %d: served from the cache in a miss workload", k)
	}
	if seen[k] == nil {
		seen[k] = make(map[string]int)
	}
	seen[k][string(o.body)]++
	return ""
}

// fail counts n failed operations and keeps the first few reasons. A
// failed operation does not make the run incorrect: correct speaks of
// the operations that did not fail, and of the shape checks.
func (rec *record) fail(n int, reason string) {
	rec.Failed += n
	if len(rec.Failures) < 5 {
		rec.Failures = append(rec.Failures, reason)
	}
}

// oracles computes every input's independent answer, two at a time.
func oracles(items []item, fl faults) ([]want, error) {
	wants := make([]want, len(items))
	errs := make([]error, len(items))
	sem := make(chan struct{}, clients)
	var wg sync.WaitGroup
	for i := range items {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			wants[i], errs[i] = items[i].oracle()
			<-sem
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("independent answers: %w", err)
	}
	if fl.flipOracle {
		for i := range wants {
			flip(&wants[i])
		}
	}
	return wants, nil
}

// checkBody decodes a response and checks its record.
func checkBody(body []byte, preds string, w want) error {
	var r response
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	rec, err := verdictjson.UnmarshalRecord(r.Record)
	if err != nil {
		return err
	}
	return w.check(rec, preds)
}

// hitBodies derives the exact body every later hit must return — the
// fill response with "cached" set — and checks each fill verdict against
// its independent answer. bad marks inputs whose fill verdict failed:
// every later answer for them counts as a failed operation.
func hitBodies(items []item, fill []outcome, wants []want) (exp [][]byte, bad []bool, err error) {
	exp = make([][]byte, len(items))
	bad = make([]bool, len(items))
	for i, o := range fill {
		if bytes.Count(o.body, []byte(`"cached": false`)) != 1 {
			return nil, nil, fmt.Errorf("fill %d: not a fresh analysis: %s", i, o.body)
		}
		bad[i] = checkBody(o.body, items[i].preds, wants[i]) != nil
		exp[i] = bytes.Replace(o.body, []byte(`"cached": false`), []byte(`"cached": true`), 1)
	}
	return exp, bad, nil
}

// flip inverts the first predicate w checks.
func flip(w *want) {
	for _, p := range []**bool{&w.su, &w.sa, &w.sc} {
		if *p != nil {
			*p = bp(!**p)
			return
		}
	}
}

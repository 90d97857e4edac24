package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"fspnet/internal/explore"
	"fspnet/internal/fsplang"
	"fspnet/internal/game"
	"fspnet/internal/game/belief"
	"fspnet/internal/network"
	"fspnet/internal/serve"
	"fspnet/internal/store"
	"fspnet/internal/success"
	"fspnet/internal/symred"
	"fspnet/internal/verdictjson"
)

// span is one timed call at a layer boundary. Spans of one request
// share the root "request" span as ancestor.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// tracer keeps spans in memory. The traced run replays one request at a
// time, so the open spans form a stack; the worker's handler, which runs
// on a server goroutine while the client waits, opens its span under
// whatever span the client has open.
type tracer struct {
	mu    sync.Mutex
	on    bool
	t0    time.Time
	spans []span
	stack []int32
}

func (tr *tracer) begin(name string) int32 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if !tr.on {
		return -1
	}
	parent := int32(-1)
	if n := len(tr.stack); n > 0 {
		parent = tr.stack[n-1]
	}
	id := int32(len(tr.spans))
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(tr.t0))})
	tr.stack = append(tr.stack, id)
	return id
}

func (tr *tracer) end(id int32) {
	if id < 0 {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans[id].End = int64(time.Since(tr.t0))
	tr.stack = tr.stack[:len(tr.stack)-1]
}

func (tr *tracer) setOn(on bool) {
	tr.mu.Lock()
	tr.on = on
	tr.mu.Unlock()
}

// wrap records a "serve.handle" span around each analyze request a
// worker answers.
func (tr *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			h.ServeHTTP(w, r)
			return
		}
		id := tr.begin("serve.handle")
		h.ServeHTTP(w, r)
		tr.end(id)
	})
}

// layerRow is one line of the traced run's self-time table.
type layerRow struct {
	Layer   string  `json:"layer"`
	SelfMs  float64 `json:"selfMsPerVerdict"`
	SelfPct float64 `json:"selfPct"`
}

// layers are the program's modules the traced run times, by span-name
// prefix.
var layers = []string{"explore", "belief", "symred", "fsplang", "serve", "cluster", "store", "verdictjson"}

// engineCounts accumulates the engines' own statistics over traced
// verdicts.
type engineCounts struct {
	exp                                                    explore.Stats
	expAllocs                                              uint64
	ctx, beliefs, positions, probe, antichain, groupOrders int
	belAllocs                                              uint64
}

func mallocs(on bool) uint64 {
	if !on {
		return 0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// traced is the per-layer run. It fills two workers behind a router with
// the workload's inputs (untraced), measures the store replay of each
// worker's directory, and then replays the request list one request at a
// time, alternating untraced and traced passes until d has passed:
// parse, format, digest, and — on the miss workloads — symmetry
// discovery, compile, explore and the belief game, then encode, a store
// write and read, a direct worker hit and a routed hit. The difference
// between the traced and untraced passes is the tracing overhead.
func traced(wl *workload, seed int64, d time.Duration, work string, rec *record, fl faults) error {
	src := wl.source(seed)
	items, err := src.next()
	if err != nil {
		return err
	}
	seq := src.order(items)
	rec.Inputs = len(items)
	c := newClient()
	defer c.Transport.(*http.Transport).CloseIdleConnections()
	tr := &tracer{t0: time.Now()}
	t, err := newTier(filepath.Join(work, "tier"), 2, wl.entries, true, tr.wrap)
	if err != nil {
		return err
	}
	defer t.stop()

	fill := runRound(c, t.entry(), items, allOf(items), clients)
	for i, o := range fill {
		if o.err != nil {
			return fmt.Errorf("fill request %d: %w", i, o.err)
		}
	}
	wants, err := oracles(items, fl)
	if err != nil {
		return err
	}
	expected, bad, err := hitBodies(items, fill, wants)
	if err != nil {
		return err
	}
	digests := make([]string, len(items))
	recs := make([]verdictjson.Record, len(items))
	for i, o := range fill {
		var r response
		if err := json.Unmarshal(o.body, &r); err != nil {
			return err
		}
		if recs[i], err = verdictjson.UnmarshalRecord(r.Record); err != nil {
			return err
		}
		digests[i] = r.Digest
	}
	ts, err := store.Open(filepath.Join(work, "trace-store"), store.Options{NoSync: true})
	if err != nil {
		return err
	}
	defer ts.Close()
	if !wl.miss {
		for i := range items {
			if err := ts.Put(digests[i], recs[i]); err != nil {
				return err
			}
		}
	}
	// Restart each worker on its directory; the replay is timed through
	// the store's own API, the way a booting worker reads it.
	var replay []float64
	replayed := 0
	for _, w := range t.workers {
		if err := w.srv.Load().Close(); err != nil {
			return err
		}
		t0 := time.Now()
		st, err := store.Open(w.dir, store.Options{NoSync: true})
		if err != nil {
			return err
		}
		n := 0
		if err := st.Range(func(string, verdictjson.Record) bool { n++; return true }); err != nil {
			return err
		}
		if err := st.Close(); err != nil {
			return err
		}
		replay = append(replay, ms(time.Since(t0)))
		replayed += n
		w.srv.Store(serve.New(workerConfig(w.dir, w.entries)))
	}

	if replayed != len(items) {
		rec.Problems = append(rec.Problems, fmt.Sprintf("worker stores replayed %d records, want one per input (%d)", replayed, len(items)))
	}

	var (
		ec          engineCounts
		served      counts
		passTime    [2]time.Duration
		tracedItems int
	)
	ring := t.router.Cluster().Ring()
	replayOne := func(k int, on bool) string {
		it := &items[k]
		root := tr.begin("request")
		defer tr.end(root)
		sp := tr.begin("fsplang.parse")
		n, err := fsplang.ParseString(it.text)
		tr.end(sp)
		if err != nil {
			return err.Error()
		}
		sp = tr.begin("fsplang.format")
		canon := fsplang.Format(n)
		tr.end(sp)
		mode := "acyclic"
		if it.cyclic {
			mode = "cyclic"
		}
		sp = tr.begin("serve.digest")
		dg := serve.Digest(canon, 0, mode, it.preds)
		tr.end(sp)
		if dg != digests[k] {
			return fmt.Sprintf("digest %s, the worker's is %s", dg, digests[k])
		}
		rc := recs[k]
		if wl.miss {
			v, err := replayEngines(tr, n, it, on, &ec)
			if err != nil {
				return err.Error()
			}
			name := n.Process(0).Name()
			if it.preds == serve.PredicatesReach {
				rc = verdictjson.Reach(name, v.Su, v.Sc)
			} else {
				rc = verdictjson.OK(name, v)
			}
			if err := wants[k].check(rc, it.preds); err != nil {
				return err.Error()
			}
		}
		sp = tr.begin("verdictjson.marshal")
		b, err := verdictjson.MarshalRecord(rc)
		tr.end(sp)
		if err != nil {
			return err.Error()
		}
		if wl.miss {
			sp = tr.begin("store.put")
			err = ts.Put(dg, rc)
			tr.end(sp)
			if err != nil {
				return err.Error()
			}
		}
		sp = tr.begin("store.get")
		got, ok, err := ts.Get(dg)
		tr.end(sp)
		if err != nil || !ok {
			return fmt.Sprintf("store read of %s: found=%t err=%v", dg, ok, err)
		}
		if gb, _ := verdictjson.MarshalRecord(got); !bytes.Equal(gb, b) {
			return "store returned a different record"
		}
		owner, err := ring.Owner(dg)
		if err != nil {
			return err.Error()
		}
		for _, hop := range []struct{ name, url string }{
			{"serve.roundtrip", t.workers[owner].url}, {"cluster.route", t.rurl},
		} {
			sp = tr.begin(hop.name)
			body, err := post(c, hop.url, it)
			tr.end(sp)
			if err != nil {
				return err.Error()
			}
			if bad[k] || !bytes.Equal(body, expected[k]) {
				return fmt.Sprintf("%s: %v: got %s", hop.name, errNotCached, body)
			}
		}
		return ""
	}

	for pass := 0; pass < 2 || pass%2 == 1 || passTime[0]+passTime[1] < d; pass++ {
		on := pass%2 == 1
		var c0 counts
		if on {
			if c0, err = t.counters(c); err != nil {
				return err
			}
		}
		tr.setOn(on)
		t0 := time.Now()
		for _, k := range seq {
			rec.Attempted++
			if fail := replayOne(k, on); fail != "" {
				rec.fail(1, fmt.Sprintf("input %d: %s", k, fail))
			}
		}
		passTime[pass%2] += time.Since(t0)
		tr.setOn(false)
		if on {
			tracedItems += len(seq)
			c1, err := t.counters(c)
			if err != nil {
				return err
			}
			served.Hits += c1.Hits - c0.Hits
			served.DiskHits += c1.DiskHits - c0.DiskHits
			served.Misses += c1.Misses - c0.Misses
			rec.Rounds++
		}
	}
	if served.Misses != 0 {
		rec.Problems = append(rec.Problems, fmt.Sprintf("traced passes recomputed %d verdicts on the workers", served.Misses))
	}
	rec.spans = tr.spans
	rec.Metrics, rec.LayerTable = layerMetrics(tr.spans, tracedItems, ec, served, replay)
	rec.Metrics["trace.overhead_pct"] = metric{100 * (passTime[1].Seconds()/passTime[0].Seconds() - 1), "%"}
	return nil
}

// replayEngines runs the engines the worker runs on a miss, each under
// its own span, and collects their statistics.
func replayEngines(tr *tracer, n *network.Network, it *item, on bool, ec *engineCounts) (success.Verdict, error) {
	sp := tr.begin("symred.discover")
	g := symred.Discover(n)
	tr.end(sp)
	sp = tr.begin("explore.compile")
	_, err := explore.Compile(n, 0)
	tr.end(sp)
	if err != nil {
		return success.Verdict{}, err
	}
	analyze, solve := explore.AnalyzeAcyclic, belief.SolveAcyclic
	if it.cyclic {
		analyze, solve = explore.AnalyzeCyclic, belief.SolveCyclic
	}
	m0 := mallocs(on)
	sp = tr.begin("explore.analyze")
	res, err := analyze(n, 0, explore.Options{})
	tr.end(sp)
	m1 := mallocs(on)
	if err != nil {
		return success.Verdict{}, err
	}
	v := success.Verdict{Su: res.Su, Sc: res.Sc}
	if on {
		ec.groupOrders += g.Order()
		ec.exp.States += res.Stats.States
		ec.exp.Moves += res.Stats.Moves
		ec.exp.ProbeStates += res.Stats.ProbeStates
		ec.exp.OrbitHits += res.Stats.OrbitHits
		ec.expAllocs += m1 - m0
	}
	if it.preds != serve.PredicatesAll {
		return v, nil
	}
	m0 = mallocs(on)
	sp = tr.begin("belief.solve")
	sa, st, err := solve(n, 0, game.Options{})
	tr.end(sp)
	m1 = mallocs(on)
	if err != nil {
		return success.Verdict{}, err
	}
	v.Sa = sa
	if on {
		ec.ctx += st.CtxStates
		ec.beliefs += st.Beliefs
		ec.positions += st.Positions
		ec.probe += st.ProbeStates
		ec.antichain += st.AntichainHits
		ec.belAllocs += m1 - m0
	}
	return v, nil
}

// layerMetrics turns the spans into the per-layer metrics: mean time per
// verdict at each boundary, engine counts per verdict, and each layer's
// self time (its spans' durations minus their children's).
func layerMetrics(spans []span, verdicts int, ec engineCounts, served counts, replay []float64) (map[string]metric, []layerRow) {
	total := map[string]time.Duration{}
	self := map[string]time.Duration{}
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	var all time.Duration
	for i, s := range spans {
		dur := time.Duration(s.End - s.Start)
		total[s.Name] += dur
		layer, _, _ := strings.Cut(s.Name, ".")
		self[layer] += dur - child[i]
		if s.Parent < 0 {
			all += dur
		}
	}
	v := float64(max(verdicts, 1))
	per := func(name string, unit time.Duration) float64 { return float64(total[name]) / float64(unit) / v }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m := map[string]metric{
		"explore.analyze_ms":          {per("explore.analyze", time.Millisecond), "ms"},
		"explore.compile_us":          {per("explore.compile", time.Microsecond), "us"},
		"explore.states":              {float64(ec.exp.States) / v, "count"},
		"explore.moves":               {float64(ec.exp.Moves) / v, "count"},
		"explore.probe_states":        {float64(ec.exp.ProbeStates) / v, "count"},
		"explore.orbit_hits":          {float64(ec.exp.OrbitHits) / v, "count"},
		"explore.allocs_per_state":    {ratio(float64(ec.expAllocs), float64(ec.exp.States)), "count"},
		"belief.solve_ms":             {per("belief.solve", time.Millisecond), "ms"},
		"belief.ctx_states":           {float64(ec.ctx) / v, "count"},
		"belief.beliefs":              {float64(ec.beliefs) / v, "count"},
		"belief.positions":            {float64(ec.positions) / v, "count"},
		"belief.probe_states":         {float64(ec.probe) / v, "count"},
		"belief.antichain_hits":       {float64(ec.antichain) / v, "count"},
		"belief.allocs_per_ctx_state": {ratio(float64(ec.belAllocs), float64(ec.ctx)), "count"},
		"symred.discover_us":          {per("symred.discover", time.Microsecond), "us"},
		"symred.group_order":          {float64(ec.groupOrders) / v, "count"},
		"fsplang.parse_us":            {per("fsplang.parse", time.Microsecond), "us"},
		"fsplang.format_us":           {per("fsplang.format", time.Microsecond), "us"},
		"serve.digest_us":             {per("serve.digest", time.Microsecond), "us"},
		"serve.roundtrip_ms":          {per("serve.roundtrip", time.Millisecond), "ms"},
		"serve.hits":                  {float64(served.Hits) / v, "count"},
		"serve.disk_hits":             {float64(served.DiskHits) / v, "count"},
		"serve.misses":                {float64(served.Misses) / v, "count"},
		"serve.memory_hit_ratio":      {ratio(float64(served.Hits-served.DiskHits), float64(served.Hits)), "ratio"},
		"store.put_us":                {per("store.put", time.Microsecond), "us"},
		"store.get_us":                {per("store.get", time.Microsecond), "us"},
		"store.replay_ms":             {median(replay), "ms"},
		"verdictjson.marshal_us":      {per("verdictjson.marshal", time.Microsecond), "us"},
	}
	// cluster.route is the cluster layer's one span; its own time — the
	// routed round trip minus the worker's handling inside it — is the
	// router hop.
	m["cluster.hop_ms"] = metric{float64(self["cluster"]) / float64(time.Millisecond) / v, "ms"}
	rows := make([]layerRow, 0, len(layers))
	for _, l := range layers {
		row := layerRow{Layer: l, SelfMs: float64(self[l]) / float64(time.Millisecond) / v}
		if all > 0 {
			row.SelfPct = 100 * float64(self[l]) / float64(all)
		}
		rows = append(rows, row)
		m[l+".self_pct"] = metric{row.SelfPct, "%"}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].SelfPct > rows[j].SelfPct })
	return m, rows
}

// writeSpans writes the traced run's spans as JSON lines.
func writeSpans(path string, spans []span) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

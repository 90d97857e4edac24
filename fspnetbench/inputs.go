package main

import (
	"errors"
	"fmt"
	"math/rand"

	"fspnet/internal/fsp"
	"fspnet/internal/fsplang"
	"fspnet/internal/fsptest"
	"fspnet/internal/network"
	"fspnet/internal/reduce"
	"fspnet/internal/sat"
	"fspnet/internal/serve"
	"fspnet/internal/success"
	"fspnet/internal/treesolve"
	"fspnet/internal/verdictjson"
)

// item is one analyze request of a workload: the fsplang text the client
// sends, the predicates it asks for, and the independent computation
// that says what the answer must be.
type item struct {
	text   string
	preds  string // serve.PredicatesReach or serve.PredicatesAll
	cyclic bool
	// oracle computes the expected verdict apart from the program under
	// test (DPLL, QBF expansion, the compose backend, or treesolve). It
	// is slow on purpose and is never run inside a timed window.
	oracle func() (want, error)
}

// want is an expected verdict: nil fields are not checked.
type want struct {
	su, sa, sc *bool
}

func bp(b bool) *bool { return &b }

// check compares a returned record with the expected verdict. Every
// record must be complete, carry the predicates the request asked for,
// and respect the paper's implication chain S_u ⇒ S_a ⇒ S_c.
func (w want) check(rec verdictjson.Record, preds string) error {
	if rec.Status != verdictjson.StatusOK {
		return fmt.Errorf("status %q (%s%s)", rec.Status, rec.Reason, rec.Error)
	}
	if rec.Su == nil || rec.Sc == nil || (preds == serve.PredicatesAll) != (rec.Sa != nil) {
		return errors.New("record lacks a requested predicate")
	}
	if *rec.Su && !*rec.Sc || rec.Sa != nil && (*rec.Su && !*rec.Sa || *rec.Sa && !*rec.Sc) {
		return fmt.Errorf("verdict breaks S_u ⇒ S_a ⇒ S_c: %s", show(rec))
	}
	for _, f := range []struct {
		name      string
		want, got *bool
	}{{"S_u", w.su, rec.Su}, {"S_a", w.sa, rec.Sa}, {"S_c", w.sc, rec.Sc}} {
		if f.want != nil && *f.want != *f.got {
			return fmt.Errorf("%s = %t, independent answer %t", f.name, *f.got, *f.want)
		}
	}
	return nil
}

func show(rec verdictjson.Record) string {
	b := func(p *bool) string {
		if p == nil {
			return "-"
		}
		return fmt.Sprint(*p)
	}
	return fmt.Sprintf("S_u=%s S_a=%s S_c=%s", b(rec.Su), b(rec.Sa), b(rec.Sc))
}

// newItem formats n and attaches its oracle.
func newItem(n *network.Network, preds string, cyclic bool, oracle func() (want, error)) item {
	return item{text: fsplang.Format(n), preds: preds, cyclic: cyclic, oracle: oracle}
}

// satItem is a Theorem 1 gadget: S_c of process 0 holds iff f is
// satisfiable, which DPLL decides.
func satItem(r *rand.Rand, vars int) (item, error) {
	f := sat.RandomRestricted3SAT(r, vars)
	n, err := reduce.SatGadgetCase1Linear(f)
	if err != nil {
		return item{}, err
	}
	return newItem(n, serve.PredicatesReach, false, func() (want, error) {
		ok, _ := sat.Solve(f)
		return want{sc: bp(ok)}, nil
	}), nil
}

// qbfItem is a Theorem 2 gadget: S_a of process 0 holds iff q is valid,
// which QBF expansion decides.
func qbfItem(r *rand.Rand, vars, clauses int) (item, error) {
	q := sat.RandomQBF(r, vars, clauses)
	n, err := reduce.QbfGadget(q)
	if err != nil {
		return item{}, err
	}
	return newItem(n, serve.PredicatesAll, false, func() (want, error) {
		ok, err := sat.SolveQBF(q)
		return want{sa: bp(ok)}, err
	}), nil
}

// cyclicQbfItem closes a Theorem 2 gadget into a cyclic network: P's one
// winning leaf loops forever on the action "again", which a one-state
// process L always offers. Under the Section 4 semantics P must keep
// playing forever, and it can do so against every adversary exactly when
// it can force its way to that leaf, so S_a still holds iff q is valid.
// The context stays τ-free and its start offers P's first move, so no
// witness probe can decide S_a: the cyclic context BFS and the greatest
// fixpoint always run. Clauses are cut to two literals, which keeps the
// context small enough (about 3,600 vectors) for the compose backend to
// check every verdict, and makes valid and invalid formulas about equally
// likely.
func cyclicQbfItem(r *rand.Rand) (item, error) {
	q := sat.RandomQBF(r, 3, 4)
	for i := range q.Matrix.Clauses {
		q.Matrix.Clauses[i] = q.Matrix.Clauses[i][:2]
	}
	g, err := reduce.QbfGadget(q)
	if err != nil {
		return item{}, err
	}
	p := g.Process(0)
	b := fsp.NewBuilder(p.Name())
	for s := 0; s < p.NumStates(); s++ {
		b.State(p.StateName(fsp.State(s)))
	}
	b.SetStart(p.Start())
	for _, t := range p.Transitions() {
		b.Add(t.From, t.Label, t.To)
	}
	for _, leaf := range p.Leaves() {
		b.Add(leaf, "again", leaf)
	}
	cp, err := b.Build()
	if err != nil {
		return item{}, err
	}
	lb := fsp.NewBuilder("L")
	on := lb.State("on")
	lb.Add(on, "again", on)
	procs := []*fsp.FSP{cp}
	for i := 1; i < g.Len(); i++ {
		procs = append(procs, g.Process(i))
	}
	n, err := network.New(append(procs, lb.MustBuild())...)
	if err != nil {
		return item{}, err
	}
	return newItem(n, serve.PredicatesAll, true, func() (want, error) {
		v, err := success.AnalyzeCyclicOpts(n, 0, success.Options{Backend: success.BackendCompose})
		if err != nil {
			return want{}, fmt.Errorf("compose backend: %w", err)
		}
		if valid, _ := sat.SolveQBF(q); valid != v.Sa {
			// The two independent answers disagree: the construction
			// above, not the program under test, is wrong.
			return want{}, fmt.Errorf("compose S_a=%t but the QBF is valid=%t", v.Sa, valid)
		}
		return want{su: bp(v.Su), sa: bp(v.Sa), sc: bp(v.Sc)}, nil
	}), nil
}

// treeItem is a random tree network of tree processes, the Theorem 3
// fragment, checked against treesolve's polynomial algorithm.
func treeItem(r *rand.Rand, procs int) (item, error) {
	n := fsptest.TreeNetwork(r, fsptest.NetConfig{
		Procs: procs, ActionsPerEdge: 2, MaxStates: 5, TauProb: 0.15,
	})
	return newItem(n, serve.PredicatesAll, false, func() (want, error) {
		v, err := treesolve.Analyze(n, 0, treesolve.Options{})
		if err != nil {
			return want{}, fmt.Errorf("treesolve: %w", err)
		}
		return want{su: bp(v.Su), sa: bp(v.Sa), sc: bp(v.Sc)}, nil
	}), nil
}

// Hit-routed fill networks are cheap to solve and 0.5–5 KB of text, so
// the timed window exercises parsing, formatting and lookup rather than
// any engine.
const (
	minFillBytes = 500
	maxFillBytes = 5000
)

// fillItem draws the i-th network of the hit-routed fill set: a small
// Theorem 1 or Theorem 2 gadget, or a tree network.
func fillItem(r *rand.Rand, i int) (item, error) {
	switch i % 3 {
	case 0:
		return satItem(r, 3+r.Intn(4))
	case 1:
		return qbfItem(r, 2+r.Intn(2), 2+r.Intn(3))
	default:
		return treeItem(r, 4+r.Intn(5))
	}
}

// distinct draws n items from gen whose requests are not in seen (and
// adds them), skipping draws the gadgets reject (reduce.ErrUnsupported)
// and draws that fits refuses. The draws depend only on gen's random
// source, so a seed fixes them.
func distinct(n int, seen map[string]bool, gen func(i int) (item, error), fits func(item) bool) ([]item, error) {
	out := make([]item, 0, n)
	for tries := 0; len(out) < n; tries++ {
		if tries > 100*n {
			return nil, fmt.Errorf("drew %d distinct inputs in %d tries, want %d", len(out), tries, n)
		}
		it, err := gen(len(out))
		if errors.Is(err, reduce.ErrUnsupported) {
			continue
		}
		if err != nil {
			return nil, err
		}
		key := it.preds + "\x00" + it.text
		if seen[key] || fits != nil && !fits(it) {
			continue
		}
		seen[key] = true
		out = append(out, it)
	}
	return out, nil
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"fspnet/internal/cluster"
	"fspnet/internal/serve"
	"fspnet/internal/store"
)

// worker is one fspd worker served from this process on a loopback
// listener. Its serve.Server can be replaced behind the listener, which
// is how the benchmark restarts a worker on its store directory (so the
// store replays) or swaps in a fresh one with an empty cache.
type worker struct {
	dir     string
	entries int
	srv     atomic.Pointer[serve.Server]
	hs      *http.Server
	url     string
	done    chan struct{}
}

// workerConfig is cmd/fspd's default configuration with two changes.
// The store skips fsync: the benchmark keeps its files inside its
// checkout rather than on a RAM-backed filesystem, and this keeps the
// host disk's sync latency out of the numbers all the same. And entries
// (0 = the default) may shrink the LRU so a working set overflows it.
func workerConfig(dir string, entries int) serve.Config {
	return serve.Config{
		QueueDepth:   serve.DefaultQueueDepth,
		CacheEntries: entries,
		MaxTimeout:   60 * time.Second,
		MaxBodyBytes: serve.DefaultMaxBodyBytes,
		Store: serve.StoreConfig{
			Dir:     dir,
			Options: store.Options{MaxRecords: store.DefaultMaxRecords, NoSync: true},
		},
	}
}

// startWorker builds a worker on dir and starts serving it. wrap, when
// non-nil, wraps the worker's handler (the traced run's span hook).
func startWorker(dir string, entries int, wrap func(http.Handler) http.Handler) (*worker, error) {
	w := &worker{dir: dir, entries: entries, done: make(chan struct{})}
	w.srv.Store(serve.New(workerConfig(dir, entries)))
	var h http.Handler = http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		w.srv.Load().Handler().ServeHTTP(rw, r)
	})
	if wrap != nil {
		h = wrap(h)
	}
	url, err := w.listen(h)
	if err != nil {
		_ = w.srv.Load().Close()
		return nil, err
	}
	w.url = url
	return w, nil
}

func (w *worker) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	w.hs = &http.Server{Handler: h}
	go func() {
		defer close(w.done)
		_ = w.hs.Serve(ln) // returns http.ErrServerClosed after stop
	}()
	return "http://" + ln.Addr().String(), nil
}

// restart closes the worker's server and builds a new one on dir, which
// replays dir's store into the new cache. Requests must be quiescent.
func (w *worker) restart(dir string) error {
	if err := w.srv.Load().Close(); err != nil {
		return fmt.Errorf("closing worker store: %w", err)
	}
	w.dir = dir
	w.srv.Store(serve.New(workerConfig(dir, w.entries)))
	return nil
}

// stop shuts the listener down, waits for the serve goroutine, and
// closes the store.
func (w *worker) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := w.hs.Shutdown(ctx); err != nil {
		_ = w.hs.Close()
	}
	<-w.done
	_ = w.srv.Load().Close()
}

// tier is the service tier one run drives: one worker for the miss
// workloads, two workers behind a router for the routed ones.
type tier struct {
	root    string // directory holding the store directories
	workers []*worker
	router  *cluster.Router
	rhs     *http.Server
	rdone   chan struct{}
	rurl    string
	gen     int // store directory generation, for fresh-cache resets
}

func (t *tier) storeDir(i int) (string, error) {
	t.gen++
	dir := filepath.Join(t.root, fmt.Sprintf("w%d-%d", i, t.gen))
	return dir, os.MkdirAll(dir, 0o755)
}

// newTier starts n workers with empty stores under root and, when
// routed, a cluster.Router over them with fsprouter's defaults.
func newTier(root string, n, entries int, routed bool, wrap func(http.Handler) http.Handler) (*tier, error) {
	t := &tier{root: root}
	var urls []string
	for i := 0; i < n; i++ {
		dir, err := t.storeDir(i)
		if err != nil {
			t.stop()
			return nil, err
		}
		w, err := startWorker(dir, entries, wrap)
		if err != nil {
			t.stop()
			return nil, err
		}
		t.workers = append(t.workers, w)
		urls = append(urls, w.url)
	}
	if !routed {
		return t, nil
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{Cluster: cluster.Config{Workers: urls}})
	if err != nil {
		t.stop()
		return nil, err
	}
	t.router = rt
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.stop()
		return nil, err
	}
	t.rurl = "http://" + ln.Addr().String()
	t.rhs = &http.Server{Handler: rt.Handler()}
	t.rdone = make(chan struct{})
	go func() {
		defer close(t.rdone)
		_ = t.rhs.Serve(ln)
	}()
	return t, nil
}

// entry is the URL clients send analyze requests to.
func (t *tier) entry() string {
	if t.router != nil {
		return t.rurl
	}
	return t.workers[0].url
}

// restartAll restarts every worker on its own store directory.
func (t *tier) restartAll() error {
	for _, w := range t.workers {
		if err := w.restart(w.dir); err != nil {
			return err
		}
	}
	return nil
}

// reset gives every worker a fresh, empty store directory and cache and
// removes the old directories, so the next round misses again.
func (t *tier) reset() error {
	for i, w := range t.workers {
		old := w.dir
		dir, err := t.storeDir(i)
		if err != nil {
			return err
		}
		if err := w.restart(dir); err != nil {
			return err
		}
		if err := os.RemoveAll(old); err != nil {
			return err
		}
	}
	return nil
}

func (t *tier) stop() {
	if t.rhs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := t.rhs.Shutdown(ctx); err != nil {
			_ = t.rhs.Close()
		}
		cancel()
		<-t.rdone
	}
	if t.router != nil {
		_ = t.router.Close()
	}
	for _, w := range t.workers {
		w.stop()
	}
}

// counts is the part of the workers' summed /statusz counters the shape
// checks and the traced run read.
type counts struct{ Hits, DiskHits, Misses, Deduped int64 }

// counters sums the workers' /statusz counters.
func (t *tier) counters(c *http.Client) (counts, error) {
	var sum counts
	for _, w := range t.workers {
		resp, err := c.Get(w.url + "/statusz")
		if err != nil {
			return sum, err
		}
		var st serve.Stats
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return sum, fmt.Errorf("decoding /statusz: %w", err)
		}
		sum.Hits += st.Hits
		sum.DiskHits += st.DiskHits
		sum.Misses += st.Misses
		sum.Deduped += st.Deduped
	}
	return sum, nil
}

// post sends one analyze request and returns the response body.
func post(c *http.Client, base string, it *item) ([]byte, error) {
	url := base + "/v1/analyze?process=0&predicates=" + it.preds
	resp, err := c.Post(url, "text/plain", strings.NewReader(it.text))
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// response is the part of serve.AnalyzeResponse the checks read.
type response struct {
	Digest string          `json:"digest"`
	Cached bool            `json:"cached"`
	Record json.RawMessage `json:"record"`
}

var errNotCached = errors.New("answer was recomputed, not served from the cache")

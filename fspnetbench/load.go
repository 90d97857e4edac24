package main

import (
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// outcome is one request's result within a round.
type outcome struct {
	body []byte
	err  error
	lat  time.Duration
}

// runRound sends items[seq[0]], items[seq[1]], … from a closed loop of
// clients: each client sends its next request only after the previous
// one answered, taking the next position in seq. It returns when every
// request has answered; out[i] belongs to seq[i].
func runRound(c *http.Client, base string, items []item, seq []int, clients int) []outcome {
	out := make([]outcome, len(seq))
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(seq) {
					return
				}
				t0 := time.Now()
				body, err := post(c, base, &items[seq[i]])
				out[i] = outcome{body: body, err: err, lat: time.Since(t0)}
			}
		}()
	}
	wg.Wait()
	return out
}

// usage is the process's CPU time and allocation total at one instant.
type usage struct {
	cpu   time.Duration
	alloc uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc,
	}
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// tail is the highest percentile with at least ten samples beyond it:
// the sample at sorted index n−11 of n. Garbage collection and CPU taken
// by the host put a few percent of requests into a slow mode whose size
// varies from run to run by a factor of two, and a whole run's p98 or
// p99 lands inside it. So a run with at least two windows of tailWindow
// consecutive requests reports the median of the windows' tails (p84.4
// for 64 requests), which repeats within a few percent. With fewer than
// forty samples there is no tail worth the name, and the maximum stands
// in.
type tail struct {
	pct     float64
	value   time.Duration
	samples int // per window
	windows int
}

const tailWindow = 64

func latencyStats(lat []time.Duration) (p50 time.Duration, t tail) {
	if len(lat) == 0 {
		return 0, tail{}
	}
	p50 = sorted(lat)[(len(lat)-1)/2]
	if len(lat) < 2*tailWindow {
		return p50, windowTail(sorted(lat), 1)
	}
	k := len(lat) / tailWindow
	vals := make([]float64, k)
	for i := range vals {
		t = windowTail(sorted(lat[i*tailWindow:(i+1)*tailWindow]), k)
		vals[i] = float64(t.value)
	}
	t.value = time.Duration(median(vals))
	return p50, t
}

func sorted(lat []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func windowTail(s []time.Duration, windows int) tail {
	n := len(s)
	if n < 40 {
		return tail{pct: 100, value: s[n-1], samples: n, windows: windows}
	}
	return tail{pct: 100 * float64(n-10) / float64(n), value: s[n-11], samples: n, windows: windows}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

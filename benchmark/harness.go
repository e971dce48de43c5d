package main

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/benchmark/gen"
)

// sizes fixes every input size and the run shape. They are the same on
// the parent and on a change; only -smoke (tests) selects the small set.
type sizes struct {
	trips, stations int // trips-ols
	authors, confs  int // conf-cov
	riders, dests   int // tripcount-add

	serveFact, serveDim, wideRows, wideCols int // serve-mix
	serveStmts                              int // statements generated per connection, cycled

	oocFact, oocDim int   // ooc-spill
	spillBytes      int64 // operator footprint above which ooc-spill statements spill

	setups int // set-ups per run; setup_s is their median
}

// The paper-sized inputs of ISSUE 11, except that ooc-spill's fact has 4
// segments of 65536 rows instead of ~8: a cycle must stay well under a
// second for a run of run_seconds to collect enough of them.
var fullSizes = sizes{
	trips: 310000, stations: 80,
	authors: 34000, confs: 130,
	riders: 250000, dests: 10,
	serveFact: 32768, serveDim: 500, wideRows: 512, wideCols: 64, serveStmts: 2000,
	oocFact: 262144, oocDim: 50000, spillBytes: 1 << 20,
	setups: 3,
}

// smokeSizes keep every mechanism (the HAVING split, zone-map pruning over
// two segments, spilling) at a few seconds in total.
var smokeSizes = sizes{
	trips: 12000, stations: 20,
	authors: 1500, confs: 24,
	riders: 8000, dests: 4,
	serveFact: 8192, serveDim: 100, wideRows: 128, wideCols: 16, serveStmts: 200,
	oocFact: 2*65536 + 4096, oocDim: 8000, spillBytes: 64 << 10,
	setups: 1,
}

// env is what one set-up of a workload receives.
type env struct {
	seed int64
	sz   sizes
	root string // the checkout: BENCHMARK.json, cmd/rmaserver, .bench_build
	dir  string // scratch directory of this set-up; the harness removes it
	par  int    // engine worker budget, min(nproc, 2), set explicitly everywhere
	// trace marks the traced run: a workload may then sample counters in
	// the background that the end-to-end run must not pay for.
	trace bool

	inputs hash.Hash // every generated table is hashed into it
	// phases receives set-up phases timed from outside a layer
	// (store.write, store.load), in seconds.
	phases map[string]float64
}

func newEnv(root string, seed int64, sz sizes) *env {
	par := runtime.NumCPU()
	if par > 2 {
		par = 2
	}
	return &env{seed: seed, sz: sz, root: root, par: par}
}

// track hashes generated tables into the run's input hash.
func (e *env) track(tables ...*gen.Table) {
	for _, t := range tables {
		t.Hash(e.inputs)
	}
}

// timed adds the wall time of f to the named set-up phase.
func (e *env) timed(phase string, f func() error) error {
	t0 := time.Now()
	err := f()
	e.phases[phase] += time.Since(t0).Seconds()
	return err
}

// workload is one of the benchmark's five workloads. The harness drives
// it; the workload owns its inputs, its reference answers and its engine
// handles.
type workload interface {
	// setup generates the inputs from e.seed, loads them into the engine
	// and computes the reference answers in plain Go.
	setup(e *env) error
	// clients is the number of closed-loop drivers; warmup the untimed
	// operations each runs before the timed phase.
	clients() int
	warmup() int
	// op runs operation i of one client with tracing off and verifies its
	// output; a non-nil error is a failed operation. It returns the time
	// the engine took, without the verification.
	op(client, i int) (time.Duration, error)
	// sqlOp is the in-process SQL form of replay(i): op itself for the
	// in-process workloads, the statement on an in-process twin database
	// for the served one.
	sqlOp(i int) (time.Duration, error)
	// replay performs operation i as direct calls into the layers' public
	// functions, one span per call. tr may be nil (spans off).
	replay(tr *tracer, i int) error
	// probe adds the per-layer metrics that come from counters or from
	// separately timed kernels instead of spans.
	probe(m map[string]float64) error
	// audit checks state that only exists after the timed phase.
	audit() error
	// tuples is the input size of one operation.
	tuples() int
	close() error
}

var workloads = map[string]func() workload{
	"trips-ols":     func() workload { return &tripsOLS{} },
	"conf-cov":      func() workload { return &confCov{} },
	"tripcount-add": func() workload { return &tripCount{} },
	"serve-mix":     func() workload { return &serveMix{} },
	"ooc-spill":     func() workload { return &oocSpill{} },
}

// setUp creates the scratch directory, sets the workload up and warms it.
// It returns the wall seconds from start to the first timed operation.
func setUp(w workload, e *env) (float64, error) {
	t0 := time.Now()
	dir, err := os.MkdirTemp(filepath.Join(e.root, ".bench_build"), "work-")
	if err != nil {
		return 0, err
	}
	e.dir, e.inputs, e.phases = dir, sha256.New(), map[string]float64{}
	if err := w.setup(e); err != nil {
		return 0, fmt.Errorf("set-up: %w", err)
	}
	var wg sync.WaitGroup
	errs := make([]error, w.clients())
	for c := range errs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < w.warmup(); i++ {
				if _, err := w.op(c, i); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("warm-up: %w", err)
		}
	}
	return time.Since(t0).Seconds(), nil
}

// tearDown closes the workload and removes its scratch directory.
func tearDown(w workload, e *env) error {
	err := w.close()
	if rmErr := os.RemoveAll(e.dir); err == nil {
		err = rmErr
	}
	return err
}

// loopResult is the outcome of one timed closed loop.
type loopResult struct {
	lat       []time.Duration // engine time of every verified operation
	attempted int
	failed    int
	firstErr  error
	wall      time.Duration
}

// closedLoop runs every client of w for d: a client starts its next
// operation when the previous one has completed and been verified. The
// operation indexes continue after the warm-up's.
func closedLoop(w workload, d time.Duration) loopResult {
	var mu sync.Mutex
	var res loopResult
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < w.clients(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var lat []time.Duration
			var failed int
			var firstErr error
			i := w.warmup()
			for ; time.Since(start) < d; i++ {
				took, err := w.op(c, i)
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = fmt.Errorf("client %d op %d: %w", c, i, err)
					}
					continue
				}
				lat = append(lat, took)
			}
			mu.Lock()
			res.lat = append(res.lat, lat...)
			res.attempted += i - w.warmup()
			res.failed += failed
			if res.firstErr == nil {
				res.firstErr = firstErr
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	res.wall = time.Since(start)
	if err := w.audit(); err != nil {
		res.attempted++
		res.failed++
		if res.firstErr == nil {
			res.firstErr = fmt.Errorf("audit: %w", err)
		}
	}
	return res
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile is the nearest-rank q-quantile of the samples in milliseconds;
// 0 when there are none.
func quantile(samples []time.Duration, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return ms(s[k])
}

// median of plain values; 0 for none.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) computes them (the exclusive method),
// which is how the driver measures a metric's spread. It needs two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	if len(v) < 2 || median(v) == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(median(v))
}

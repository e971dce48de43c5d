package main

import (
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload reports; it is the JSON object
// the benchmark prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is one run: a workload, a seed, a measuring time.
type runConfig struct {
	workload string
	root     string
	seed     int64
	seconds  float64
	sz       sizes
	out      io.Writer // progress and the `workload metric value unit` lines
}

func (rc runConfig) header(e *env) {
	fmt.Fprintf(rc.out, "# %s seed=%d inputs=sha256:%s nproc=%d GOMAXPROCS=%d parallelism=%d %s\n",
		rc.workload, rc.seed, hex.EncodeToString(e.inputs.Sum(nil))[:16],
		runtime.NumCPU(), runtime.GOMAXPROCS(0), e.par, runtime.Version())
}

// report prints one line per metric of the list and builds the result.
func (rc runConfig) report(list []specMetric, values map[string]float64, notes map[string]string, loop loopResult) result {
	res := result{Correct: loop.failed == 0, Attempted: loop.attempted, Failed: loop.failed, Metrics: map[string]metric{}}
	for _, sm := range list {
		res.Metrics[sm.Name] = metric{values[sm.Name], sm.Unit}
		fmt.Fprintf(rc.out, "%s %s %v %s%s\n", rc.workload, sm.Name, values[sm.Name], sm.Unit, notes[sm.Name])
	}
	fmt.Fprintf(rc.out, "%s attempted_ops %d count\n%s failed_ops %d count\n", rc.workload, loop.attempted, rc.workload, loop.failed)
	if loop.firstErr != nil {
		fmt.Fprintf(rc.out, "# first failure: %v\n", loop.firstErr)
	}
	return res
}

// prepare does the work that is neither set-up nor measurement: building
// the server the served workload starts.
func (rc runConfig) prepare() error {
	if rc.workload != "serve-mix" {
		return nil
	}
	_, err := serverBinary(rc.root)
	return err
}

// untraced is the end-to-end run: it sets the workload up sz.setups times
// (setup_s is the median), then measures one closed loop with tracing off.
func (rc runConfig) untraced(sp *spec) (result, error) {
	if err := rc.prepare(); err != nil {
		return result{}, err
	}
	var w workload
	e := newEnv(rc.root, rc.seed, rc.sz)
	var setups []float64
	for k := 0; k < rc.sz.setups; k++ {
		if w != nil {
			if err := tearDown(w, e); err != nil {
				return result{}, err
			}
		}
		w = workloads[rc.workload]()
		s, err := setUp(w, e)
		if err != nil {
			tearDown(w, e)
			return result{}, err
		}
		setups = append(setups, s)
	}
	rc.header(e)
	loop := closedLoop(w, time.Duration(rc.seconds*float64(time.Second)))
	tuples := w.tuples()
	if err := tearDown(w, e); err != nil {
		return result{}, err
	}
	values := map[string]float64{
		"setup_s":   median(setups),
		"op_p50_ms": quantile(loop.lat, 0.50),
		"ops_per_s": float64(len(loop.lat)) / loop.wall.Seconds(),
	}
	notes := map[string]string{
		"setup_s":   fmt.Sprintf("  # median of %d set-ups", len(setups)),
		"op_p50_ms": fmt.Sprintf("  # %d samples", len(loop.lat)),
		"ops_per_s": fmt.Sprintf("  # %d input tuples per op, %d closed-loop client(s)", tuples, w.clients()),
	}
	return rc.report(sp.EndToEnd, values, notes, loop), nil
}

// traced is the separate run that yields the per-layer numbers. Its first
// half is the same closed loop as the untraced run (client-side and
// counter metrics); its second half alternates, operation by operation,
// the in-process SQL form, the replay as direct layer calls with spans
// off, and the same replay with spans on. Spans are written to
// .bench_build/trace.json when the run ends.
func (rc runConfig) traced(sp *spec) (result, error) {
	if err := rc.prepare(); err != nil {
		return result{}, err
	}
	w := workloads[rc.workload]()
	e := newEnv(rc.root, rc.seed, rc.sz)
	e.trace = true
	if _, err := setUp(w, e); err != nil {
		tearDown(w, e)
		return result{}, err
	}
	defer tearDown(w, e)
	rc.header(e)
	half := time.Duration(rc.seconds * float64(time.Second) / 2)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	loop := closedLoop(w, half)
	runtime.ReadMemStats(&after)
	// Counters are read now, while they describe the closed loop alone.
	probed := map[string]float64{}
	if err := w.probe(probed); err != nil {
		return result{}, fmt.Errorf("probe: %w", err)
	}

	tr := newTracer()
	var sqlT, plainT, tracedT []time.Duration
	fail := func(err error) {
		loop.failed++
		if loop.firstErr == nil {
			loop.firstErr = err
		}
	}
	start := time.Now()
	for i := 0; time.Since(start) < half || i < 4; i++ {
		loop.attempted += 3
		d, err := w.sqlOp(i)
		if err != nil {
			fail(fmt.Errorf("sql op %d: %w", i, err))
		}
		sqlT = append(sqlT, d)
		// Alternate which replay goes first, so that neither always finds
		// the other's warm caches and pools.
		order := []*tracer{nil, tr}
		if i%2 == 1 {
			order = []*tracer{tr, nil}
		}
		for _, t := range order {
			t0 := time.Now()
			if err := w.replay(t, i); err != nil {
				fail(fmt.Errorf("replay %d: %w", i, err))
			}
			if t == nil {
				plainT = append(plainT, time.Since(t0))
			} else {
				tracedT = append(tracedT, time.Since(t0))
			}
		}
	}

	m := map[string]float64{}
	spanMs, counts := tr.perOp()
	m["rel.join_ms"], m["rel.group_ms"] = spanMs["rel.join"], spanMs["rel.group"]
	m["rel.join_allocs"] = counts["rel.join.allocs"]
	coreSplit(counts, m)
	m["store.write_s"], m["store.load_s"] = e.phases["store.write"], e.phases["store.load"]
	m["sql.overhead_ms"] = mean(sqlT) - mean(plainT)
	m["trace.op_ms"] = quantile(plainT, 0.50)
	// Tracing overhead: the geometric mean, over an even number of
	// replayed operations (so that both orders weigh the same), of the
	// traced replay's time relative to the untraced replay of the same
	// operation. A ratio of two p50s would jump between statement kinds on
	// the served mix.
	var logRatio float64
	pairs := len(plainT) &^ 1
	for i := 0; i < pairs; i++ {
		logRatio += math.Log(float64(tracedT[i]) / float64(plainT[i]))
	}
	m["trace.overhead_pct"] = 100 * (math.Exp(logRatio/float64(pairs)) - 1)
	m["op_p95_ms"] = quantile(loop.lat, 0.95)
	if n := float64(len(loop.lat)); n > 0 {
		m["go.allocs_per_op"] = float64(after.Mallocs-before.Mallocs) / n
		m["go.alloc_mib_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / n / (1 << 20)
	}
	if rss, err := peakRSSMiB(os.Getpid()); err == nil {
		m["proc.peak_rss_mib"] = rss
	}
	if err := tr.write(filepath.Join(rc.root, ".bench_build", "trace.json"), rc.workload, rc.seed); err != nil {
		return result{}, err
	}
	for name, v := range probed {
		m[name] = v
	}
	return rc.report(sp.PerLayer, m, nil, loop), nil
}

func mean(d []time.Duration) float64 {
	if len(d) == 0 {
		return 0
	}
	var s float64
	for _, x := range d {
		s += ms(x)
	}
	return s / float64(len(d))
}

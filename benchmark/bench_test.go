package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

const testRoot = ".." // the tests run in benchmark/

func testSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec(testRoot)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(testRoot, ".bench_build"), 0o755); err != nil {
		t.Fatal(err)
	}
	return sp
}

// skipServer skips the workload that needs a built rmaserver under -short.
func skipServer(t *testing.T, name string) {
	t.Helper()
	if name == "serve-mix" && testing.Short() {
		t.Skip("serve-mix builds and starts rmaserver; skipped under -short")
	}
}

func smokeConfig(name string, out *bytes.Buffer) runConfig {
	return runConfig{workload: name, root: testRoot, seed: 5, seconds: 0.4, sz: smokeSizes, out: out}
}

// Every workload and metric name that a run prints is in BENCHMARK.json,
// and the other way round; no operation fails at smoke sizes.
func TestRunPrintsTheMetricsOfTheSpec(t *testing.T) {
	sp := testSpec(t)
	for _, name := range sp.workloadNames() {
		for _, traced := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "/run", true: "/trace"}[traced], func(t *testing.T) {
				skipServer(t, name)
				var out bytes.Buffer
				rc := smokeConfig(name, &out)
				want, run := sp.EndToEnd, rc.untraced
				if traced {
					want, run = sp.PerLayer, rc.traced
				}
				res, err := run(sp)
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
					t.Errorf("attempted %d, failed %d, correct %v\n%s", res.Attempted, res.Failed, res.Correct, out.String())
				}
				printed := map[string]bool{}
				for _, line := range strings.Split(out.String(), "\n") {
					f := strings.Fields(line)
					if len(f) < 4 || f[0] == "#" {
						continue
					}
					if f[0] != name || !nameRE.MatchString(f[1]) {
						t.Errorf("bad line %q", line)
					}
					printed[f[1]] = true
				}
				for _, m := range want {
					if !printed[m.Name] {
						t.Errorf("metric %s of BENCHMARK.json was not printed", m.Name)
					}
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
						t.Errorf("metric %s: result holds %+v", m.Name, got)
					}
					if !traced && got.Value <= 0 {
						t.Errorf("end-to-end metric %s is %v; it must never be 0", m.Name, got.Value)
					}
					delete(printed, m.Name)
				}
				delete(printed, "attempted_ops")
				delete(printed, "failed_ops")
				for extra := range printed {
					t.Errorf("metric %s was printed but is not in BENCHMARK.json", extra)
				}
				if _, err := json.Marshal(res); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// setUpSmoke sets one workload up at smoke sizes for a test.
func setUpSmoke(t *testing.T, name string) (workload, *env) {
	t.Helper()
	testSpec(t)
	skipServer(t, name)
	w, e := workloads[name](), newEnv(testRoot, 5, smokeSizes)
	if _, err := setUp(w, e); err != nil {
		tearDown(w, e)
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := tearDown(w, e); err != nil {
			t.Error(err)
		}
	})
	return w, e
}

// Spans nest, and the self times of one operation's spans sum to the
// operation's wall time as measured outside the tracer, within 10 %.
func TestSpansNestAndSelfTimesSumToTheOp(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			w, _ := setUpSmoke(t, name)
			tr := newTracer()
			var wall []time.Duration
			for i := 0; i < 8; i++ {
				t0 := time.Now()
				if err := w.replay(tr, i); err != nil {
					t.Fatal(err)
				}
				wall = append(wall, time.Since(t0))
			}
			if len(tr.open) != 0 {
				t.Fatalf("%d spans left open", len(tr.open))
			}
			self := tr.selfTimes()
			perOp := map[int]time.Duration{}
			for i, s := range tr.spans {
				if s.EndNs < s.StartNs {
					t.Errorf("span %d %s ends before it starts", i, s.Name)
				}
				if s.Parent >= 0 {
					p := tr.spans[s.Parent]
					if p.OpID != s.OpID || s.StartNs < p.StartNs || s.EndNs > p.EndNs {
						t.Errorf("span %d %s is not inside its parent %s", i, s.Name, p.Name)
					}
				} else if s.Name != "op" {
					t.Errorf("root span %d is %s, want op", i, s.Name)
				}
				if self[i] < 0 {
					t.Errorf("span %d %s has negative self time %v", i, s.Name, self[i])
				}
				perOp[s.OpID] += self[i]
			}
			if len(perOp) != len(wall) {
				t.Fatalf("%d operations traced, %d run", len(perOp), len(wall))
			}
			// The replay verifies its answer after the root span ends, so
			// compare totals over all operations, where that is a small share.
			var spans, outside time.Duration
			for i := range wall {
				spans += perOp[i+1]
				outside += wall[i]
			}
			if ratio := float64(spans) / float64(outside); ratio < 0.9 || ratio > 1.0 {
				t.Errorf("self times sum to %v, the operations took %v (ratio %.3f)", spans, outside, ratio)
			}
		})
	}
}

// A corrupted reference must show as failed operations: the verification
// is really comparing.
func TestCorruptedReferenceFailsOps(t *testing.T) {
	corrupt := map[string]func(w workload){
		"trips-ols": func(w workload) { w.(*tripsOLS).want[1] *= 1 + 1e-6 },
		"conf-cov": func(w workload) {
			for _, row := range w.(*confCov).want {
				row[0] += 1
			}
		},
		"tripcount-add": func(w workload) { w.(*tripCount).want[0][0]++ },
		"ooc-spill":     func(w workload) { w.(*oocSpill).groupN[w.(*oocSpill).fact.Col("grp").I[0]]++ },
		"serve-mix": func(w workload) {
			s := w.(*serveMix)
			for _, st := range s.mixes[1] {
				if st.Kind == "topk" {
					s.expect[st.SQL] = s.expect[st.SQL].Limit(nil, 9)
				}
			}
		},
	}
	for name, damage := range corrupt {
		t.Run(name, func(t *testing.T) {
			w, _ := setUpSmoke(t, name)
			if loop := closedLoop(w, 200*time.Millisecond); loop.failed != 0 {
				t.Fatalf("%d operations failed before the reference was corrupted: %v", loop.failed, loop.firstErr)
			}
			damage(w)
			loop := closedLoop(w, 200*time.Millisecond)
			if loop.failed == 0 || loop.firstErr == nil {
				t.Errorf("a corrupted reference went unnoticed over %d operations", loop.attempted)
			}
			if len(loop.lat)+loop.failed != loop.attempted {
				t.Errorf("%d latencies + %d failed != %d attempted", len(loop.lat), loop.failed, loop.attempted)
			}
		})
	}
}

// ooc-spill spills on every cycle and its range scans are pruned.
func TestOOCSpillsAndPrunes(t *testing.T) {
	w, _ := setUpSmoke(t, "ooc-spill")
	o := w.(*oocSpill)
	for i := 0; i < 3; i++ {
		before := o.db.SpillStats().SpilledBytes
		if _, err := o.op(0, i); err != nil {
			t.Fatal(err)
		}
		if o.db.SpillStats().SpilledBytes <= before {
			t.Errorf("cycle %d spilled nothing", i)
		}
	}
	m := map[string]float64{}
	if err := o.probe(m); err != nil {
		t.Fatal(err)
	}
	if f := m["store.scan_rows_frac"]; f <= 0 || f >= 1 {
		t.Errorf("store.scan_rows_frac = %v; zone maps must prune some but not all rows", f)
	}
	if m["exec.spilled_bytes"] <= 0 || m["exec.spill_events"] <= 0 {
		t.Errorf("spill counters %v, %v", m["exec.spilled_bytes"], m["exec.spill_events"])
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which is
// what the driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 2, 38, 23, 38, 23, 21}, 10, 38},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2, 5, 4}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
}

func TestCheckVerdicts(t *testing.T) {
	sp := testSpec(t)
	dir := t.TempDir()
	write := func(file string, p50 []float64, failed int) string {
		res := suiteResults{Runs: map[string][]result{}}
		for _, v := range p50 {
			res.Runs["trips-ols"] = append(res.Runs["trips-ols"], result{Attempted: 100, Failed: failed, Metrics: map[string]metric{
				"setup_s": {1, "s"}, "op_p50_ms": {v, "ms"}, "ops_per_s": {1000 / v, "1/s"}}})
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, file)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	t.Setenv("BENCHMARK_ROOT", testRoot)
	bound := 0.0
	for _, m := range sp.EndToEnd {
		if m.Name == "op_p50_ms" {
			bound = m.Bound
		}
	}
	base := write("a.json", []float64{100, 101, 99, 100}, 0)
	if err := checkCmd([]string{base, write("same.json", []float64{101, 100, 100, 99}, 0)}); err != nil {
		t.Errorf("two runs of the same code: %v", err)
	}
	if err := checkCmd([]string{base, write("slow.json", []float64{100 * (1 + 2*bound), 100 * (1 + 2*bound)}, 0)}); err == nil {
		t.Error("a slowdown of twice the bound passed the check")
	}
	if err := checkCmd([]string{base, write("fail.json", []float64{100, 100}, 1)}); err == nil {
		t.Error("a rise in failed operations passed the check")
	}
	if err := checkCmd([]string{base, write("noisy.json", []float64{70, 100, 130, 100}, 0)}); err != nil {
		t.Errorf("a noisy but not slower run must be unresolved, not a regression: %v", err)
	}
}

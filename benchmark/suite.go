package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	osexec "os/exec"
	"runtime"
	"strconv"
	"strings"
)

// suiteResults is a results file: every run of every workload, in order.
type suiteResults struct {
	Header map[string]string   `json:"header"`
	Runs   map[string][]result `json:"runs"`
}

// values returns the metric's value in each of the workload's runs.
func (s *suiteResults) values(workload, metric string) []float64 {
	var v []float64
	for _, r := range s.Runs[workload] {
		if m, ok := r.Metrics[metric]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

type suiteFlags struct {
	workloads, out string
	seed           int64
	repeat         int
	seconds        float64
	smoke          bool
}

func (f *suiteFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&f.workloads, "workload", "", "comma-separated workloads (default: all)")
	fs.StringVar(&f.out, "out", "", "write the results to this JSON file")
	fs.Int64Var(&f.seed, "seed", 1, "input seed; repeat r uses seed+r")
	fs.IntVar(&f.repeat, "repeat", 1, "runs per workload")
	fs.Float64Var(&f.seconds, "seconds", 0, "measuring time per run (default: run_seconds of BENCHMARK.json)")
	fs.BoolVar(&f.smoke, "smoke", false, "small inputs, for tests")
}

// runSuite runs each selected workload f.repeat times, each run in a child
// process of its own — exactly the command the driver of BENCHMARK.json
// issues — so that no run inherits another's heap or caches.
func runSuite(f *suiteFlags, sp *spec, root string, trace int) (*suiteResults, error) {
	names := sp.workloadNames()
	if f.workloads != "" {
		names = strings.Split(f.workloads, ",")
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	res := &suiteResults{Runs: map[string][]result{}, Header: map[string]string{
		"nproc": strconv.Itoa(runtime.NumCPU()), "gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go": runtime.Version(), "commit": commit(root), "seed": strconv.FormatInt(f.seed, 10),
	}}
	fmt.Printf("# nproc=%s GOMAXPROCS=%s %s commit=%s\n", res.Header["nproc"], res.Header["gomaxprocs"], res.Header["go"], res.Header["commit"])
	for _, name := range names {
		for r := 0; r < f.repeat; r++ {
			args := []string{"--workload", name, "--seed", strconv.FormatInt(f.seed+int64(r), 10),
				"--trace", strconv.Itoa(trace)}
			if f.seconds > 0 {
				args = append(args, "--seconds", strconv.FormatFloat(f.seconds, 'f', -1, 64))
			}
			if f.smoke {
				args = append(args, "-smoke")
			}
			cmd := osexec.Command(self, args...)
			cmd.Env = append(os.Environ(), "BENCHMARK_ROOT="+root)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return nil, fmt.Errorf("%s (seed %d): %w", name, f.seed+int64(r), err)
			}
			lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
			fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
			var one result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &one); err != nil {
				return nil, fmt.Errorf("%s: last line is not a result: %w", name, err)
			}
			res.Runs[name] = append(res.Runs[name], one)
		}
	}
	if f.out != "" {
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(f.out, append(b, '\n'), 0o644); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// commit is the checkout's git commit, "unknown" outside a repository.
func commit(root string) string {
	out, err := osexec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func suiteCmd(cmd string, args []string) error {
	var f suiteFlags
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	f.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	sp, err := loadSpec(root)
	if err != nil {
		return err
	}
	trace := 0
	if cmd == "trace" {
		trace = 1
	}
	res, err := runSuite(&f, sp, root, trace)
	if err != nil {
		return err
	}
	for name, runs := range res.Runs {
		for _, r := range runs {
			if r.Failed > 0 {
				return fmt.Errorf("%s: %d of %d operations failed", name, r.Failed, r.Attempted)
			}
		}
	}
	return nil
}

// worse is by how much b is worse than a, as a share of a.
func worse(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

func failedShare(runs []result) float64 {
	var failed, attempted int
	for _, r := range runs {
		failed, attempted = failed+r.Failed, attempted+r.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// checkCmd compares result file B against A: it fails when any end-to-end
// metric's median is worse by more than its bound, or when the share of
// failed operations rose. Where the runs' own spread exceeds the bound the
// verdict is "unresolved", not "unchanged".
func checkCmd(args []string) error {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: check A.json B.json")
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	sp, err := loadSpec(root)
	if err != nil {
		return err
	}
	var files [2]suiteResults
	for k := range files {
		b, err := os.ReadFile(fs.Arg(k))
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &files[k]); err != nil {
			return fmt.Errorf("%s: %w", fs.Arg(k), err)
		}
	}
	a, b := &files[0], &files[1]
	regressions := 0
	fmt.Printf("%-14s %-10s %12s %12s %8s %7s %7s  %s\n", "workload", "metric", "A median", "B median", "worse", "spread", "bound", "verdict")
	for _, name := range sp.workloadNames() {
		if len(a.Runs[name]) == 0 || len(b.Runs[name]) == 0 {
			continue
		}
		for _, m := range sp.EndToEnd {
			va, vb := a.values(name, m.Name), b.values(name, m.Name)
			w := worse(m.Better, median(va), median(vb))
			sprd := math.Max(spread(va), spread(vb))
			verdict := "unchanged"
			switch {
			case w > m.Bound:
				verdict = "REGRESSION"
				regressions++
			case sprd > m.Bound:
				verdict = "unresolved"
			case w < -m.Bound:
				verdict = "better"
			}
			fmt.Printf("%-14s %-10s %12.4f %12.4f %+7.1f%% %6.1f%% %6.1f%%  %s\n",
				name, m.Name, median(va), median(vb), 100*w, 100*sprd, 100*m.Bound, verdict)
		}
		if fa, fb := failedShare(a.Runs[name]), failedShare(b.Runs[name]); fb > fa {
			fmt.Printf("%-14s failed ops rose from %.4f to %.4f of attempted  REGRESSION\n", name, fa, fb)
			regressions++
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d regression(s)", regressions)
	}
	return nil
}

// calibrateCmd measures the noise: five runs per workload on five seeds.
// It prints every end-to-end metric's median, quartiles and relative
// spread, and writes the bounds into BENCHMARK.json: three times the
// widest spread over the workloads, at least 0.10 and at most 0.25, and
// for setup_s the largest bound of all.
func calibrateCmd(args []string) error {
	f := suiteFlags{}
	fs := flag.NewFlagSet("calibrate", flag.ContinueOnError)
	f.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if f.repeat < 5 {
		f.repeat = 5
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	sp, err := loadSpec(root)
	if err != nil {
		return err
	}
	res, err := runSuite(&f, sp, root, 0)
	if err != nil {
		return err
	}
	fmt.Printf("\n%-14s %-10s %12s %12s %12s %8s\n", "workload", "metric", "q1", "median", "q3", "spread")
	largest := 0.0
	for k := range sp.EndToEnd {
		m := &sp.EndToEnd[k]
		widest := 0.0
		for _, name := range sp.workloadNames() {
			v := res.values(name, m.Name)
			if len(v) < 2 {
				continue
			}
			q1, q3 := quartiles(v)
			fmt.Printf("%-14s %-10s %12.4f %12.4f %12.4f %7.1f%%\n", name, m.Name, q1, median(v), q3, 100*spread(v))
			widest = math.Max(widest, spread(v))
		}
		m.Bound = math.Min(0.25, math.Max(0.10, math.Ceil(300*widest)/100))
		if 3*widest > 0.25 {
			fmt.Printf("# %s: spread %.1f%% is more than a third of the largest bound; it cannot stay an end-to-end metric\n", m.Name, 100*widest)
		}
		largest = math.Max(largest, m.Bound)
	}
	for k := range sp.EndToEnd {
		if sp.EndToEnd[k].Name == "setup_s" {
			sp.EndToEnd[k].Bound = largest
		}
		fmt.Printf("# bound %s = %.2f\n", sp.EndToEnd[k].Name, sp.EndToEnd[k].Bound)
	}
	return sp.save(root)
}

// Command benchmark is the repository's benchmark: five mixed
// relational/matrix workloads measured end to end (tracing off) and layer
// by layer (a separate traced run), with every output verified against a
// plain-Go reference. BENCHMARK.json at the root of the repository names
// the command, the workloads, the metrics and their regression bounds;
// README.md in this directory defines them.
//
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//	    one run of one workload; the last line of output is the result
//	    as JSON (this is what the driver of BENCHMARK.json calls)
//	bash benchmark/run.sh run [-seed N] [-workload a,b] [-repeat R] [-out results.json]
//	    every workload end to end, one `workload metric value unit` line
//	    per value
//	bash benchmark/run.sh trace [-seed N] [-workload a,b]
//	    the traced runs: per-layer numbers, tracing overhead, trace.json
//	bash benchmark/run.sh check A.json B.json
//	    compare two result files against the bounds in BENCHMARK.json
//	bash benchmark/run.sh calibrate [-seed N]
//	    five runs per workload; prints every metric's spread and writes
//	    the bounds into BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// spec mirrors BENCHMARK.json.
type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// specMetric is one metric of the spec; per-layer metrics have no bound.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// loadSpec reads BENCHMARK.json and checks that it names exactly the
// workloads this program implements.
func loadSpec(root string) (*spec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(sp.Workloads) != len(workloads) {
		return nil, fmt.Errorf("BENCHMARK.json lists %d workloads, the benchmark implements %d", len(sp.Workloads), len(workloads))
	}
	for _, w := range sp.Workloads {
		if workloads[w.Name] == nil {
			return nil, fmt.Errorf("BENCHMARK.json lists unknown workload %q", w.Name)
		}
	}
	for _, m := range append(append([]specMetric(nil), sp.PerLayer...), sp.EndToEnd...) {
		if !nameRE.MatchString(m.Name) {
			return nil, fmt.Errorf("BENCHMARK.json: bad metric name %q", m.Name)
		}
	}
	return &sp, nil
}

func (sp *spec) save(root string) error {
	b, err := json.MarshalIndent(sp, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, "BENCHMARK.json"), append(b, '\n'), 0o644)
}

func (sp *spec) workloadNames() []string {
	names := make([]string, len(sp.Workloads))
	for k, w := range sp.Workloads {
		names[k] = w.Name
	}
	return names
}

// findRoot returns the checkout root, the directory holding
// BENCHMARK.json: $BENCHMARK_ROOT (run.sh sets it), else the working
// directory or its parent (when run from benchmark/).
func findRoot() (string, error) {
	for _, dir := range []string{os.Getenv("BENCHMARK_ROOT"), ".", ".."} {
		if dir == "" {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found; set BENCHMARK_ROOT to the checkout")
}

func main() {
	if err := dispatch(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func dispatch(args []string) error {
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		switch cmd, rest := args[0], args[1:]; cmd {
		case "run", "trace":
			return suiteCmd(cmd, rest)
		case "check":
			return checkCmd(rest)
		case "calibrate":
			return calibrateCmd(rest)
		default:
			return fmt.Errorf("unknown command %q (run, trace, check, calibrate)", cmd)
		}
	}
	return driverCmd(args)
}

// driverCmd is one run of one workload, as BENCHMARK.json's driver calls it.
func driverCmd(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 0, "measuring time (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	smoke := fs.Bool("smoke", false, "small inputs, for tests")
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
	if workloads[*name] == nil {
		return fmt.Errorf("unknown workload %q; BENCHMARK.json lists %s", *name, strings.Join(sp.workloadNames(), ", "))
	}
	rc := runConfig{workload: *name, root: root, seed: *seed, seconds: *seconds, sz: fullSizes, out: os.Stdout}
	if rc.seconds <= 0 {
		rc.seconds = float64(sp.RunSeconds)
	}
	if *smoke {
		rc.sz = smokeSizes
	}
	if err := os.MkdirAll(filepath.Join(root, ".bench_build"), 0o755); err != nil {
		return err
	}
	var res result
	if *trace == 1 {
		res, err = rc.traced(sp)
	} else {
		res, err = rc.untraced(sp)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

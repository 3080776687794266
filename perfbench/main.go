// Command perfbench is the repository's end-to-end benchmark. It runs one
// seeded workload per invocation and prints every metric by name and unit;
// the last line of standard output is a JSON object with the keys correct,
// attempted, failed and metrics. The metric names and units come from
// BENCHMARK.json, read from the working directory (the repository root).
//
//	bash perfbench/run.sh --workload commit-hot --seed 1 --seconds 30 --trace 0
//
// Three service workloads (commit-hot, cold-churn, whatif-mix) drive an
// in-process loopback priu/service server through the priu/client SDK; the
// paper workload (paper-sec6) calls priu and priu/bench directly. With
// --trace 0 the run reports the end-to-end metrics, measured with span
// recording off. With --trace 1 the measured window's slices alternate
// untraced and traced; the run reports the per-layer metrics from the traced
// slices and the difference between the two as trace_overhead_pct.
// README.md maps every per-layer metric to the end-to-end metric and
// workload it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"

	"repro/internal/par"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// metricDefs reads the end-to-end metrics (reported by --trace 0 runs) and
// the per-layer metrics (--trace 1) from BENCHMARK.json at the repository
// root, the one list of names and units. A per-layer metric a workload does
// not exercise reads 0 (for example the store on paper-sec6).
func metricDefs() (endToEnd, perLayer []metricDef, err error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, nil, err
	}
	var doc struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return doc.EndToEnd, doc.PerLayer, nil
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	dir     string // scratch directory inside the checkout
	out     string // where spans, series and the result file are written
}

// outcome is what a workload returns: measured values by metric name, the
// operation counts, and the output checks.
type outcome struct {
	values    map[string]float64
	attempted int64
	failed    int64
	checks    []check
	notes     map[string]string // run environment and workload parameters
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

func (o *outcome) set(name string, v float64) {
	if o.values == nil {
		o.values = map[string]float64{}
	}
	o.values[name] = v
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.checks = append(o.checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (o *outcome) note(k, v string) {
	if o.notes == nil {
		o.notes = map[string]string{}
	}
	o.notes[k] = v
}

type workloadFn func(runConfig) (*outcome, error)

var workloads = map[string]workloadFn{
	"commit-hot": runCommitHot,
	"cold-churn": runColdChurn,
	"whatif-mix": runWhatIfMix,
	"paper-sec6": runPaperSec6,
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload: commit-hot | cold-churn | whatif-mix | paper-sec6")
	seed := flag.Int64("seed", 1, "workload seed; the same seed generates the same inputs")
	seconds := flag.Float64("seconds", 30, "length of the measured window")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	endToEnd, perLayer, err := metricDefs()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	base := filepath.Join(wd, ".perfbench")
	cfg := runConfig{
		seed: *seed, seconds: *seconds, trace: *trace == 1,
		dir: filepath.Join(base, fmt.Sprintf("run-%d", os.Getpid())),
		out: filepath.Join(base, "out"),
	}
	for _, d := range []string{cfg.dir, cfg.out} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	defer os.RemoveAll(cfg.dir)

	out, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	env := environment(cfg.dir)
	for k, v := range out.notes {
		env[k] = v
	}
	correct := true
	for _, c := range out.checks {
		status := "ok"
		if !c.OK {
			status = "FAILED"
			correct = false
		}
		fmt.Printf("check %-28s %-6s %s\n", c.Name, status, c.Detail)
	}
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("env %-28s %s\n", k, env[k])
	}
	failedRatio := ratio(float64(out.failed), float64(out.attempted))
	fmt.Printf("metric %-40s %14.6g %s\n", "failed_ratio", failedRatio, "ratio")

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := result{Correct: correct, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range defs {
		v, ok := out.values[d.Name]
		if !ok && !cfg.trace {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", *workload, d.Name)
			return 1
		}
		fmt.Printf("metric %-40s %14.6g %s\n", d.Name, v, d.Unit)
		res.Metrics[d.Name] = jsonMetric{Value: v, Unit: d.Unit}
	}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	record := map[string]any{"workload": *workload, "seed": *seed, "trace": *trace, "env": env,
		"checks": out.checks, "values": out.values, "failed_ratio": failedRatio}
	if b, err := json.MarshalIndent(record, "", "  "); err == nil {
		_ = os.WriteFile(filepath.Join(cfg.out, fmt.Sprintf("%s.trace%d.json", *workload, *trace)), b, 0o644)
	}
	if !correct {
		// A run whose checks fail reports failure, not numbers.
		res.Metrics = map[string]jsonMetric{}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// environment records what the numbers depend on besides the code.
func environment(dir string) map[string]string {
	compute, mem := par.Cutoffs()
	return map[string]string{
		"nproc":        fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs":   fmt.Sprint(runtime.GOMAXPROCS(0)),
		"par_workers":  fmt.Sprint(par.Workers()),
		"par_cutoffs":  fmt.Sprintf("compute=%d mem=%d (static default, not calibrated)", compute, mem),
		"go_version":   runtime.Version(),
		"goos_goarch":  runtime.GOOS + "/" + runtime.GOARCH,
		"spill_fs":     filesystem(dir),
		"flush_policy": fmt.Sprintf("write-behind queue=%d workers=%d coalesce=%d quiet=%s compact=%d, fsync per spill", spillQueue, spillWorkers, spillCoalesce, spillQuiet, spillCompact),
	}
}

// filesystem names the filesystem type under dir from statfs's magic number.
func filesystem(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown (" + err.Error() + ")"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x2FC12FC1: "zfs", 0x6969: "nfs", 0x65735546: "fuse", 0x01021997: "v9fs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return strings.ToLower(fmt.Sprintf("0x%x", st.Type))
}

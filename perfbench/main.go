// Command perfbench is the repository's benchmark. It drives the Safe
// Browsing stack through the public functions of its internal packages
// on three workloads — serve, campaign and churn — checks each
// workload's outputs, and prints every metric by name with its unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// An untraced run (-trace 0) reports the end-to-end metrics. A traced
// run (-trace 1) runs the workload once untraced and once with spans
// recorded at every layer boundary, and reports the per-layer metrics
// and the tracing overhead. See README.md for the metrics, the
// workloads and why each was chosen.
//
// Usage:
//
//	perfbench -workload serve|campaign|churn|all -seed N [-seconds 10] [-trace 0|1] [-out DIR]
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

var workloadNames = []string{"serve", "campaign", "churn"}

// sizes scales each workload to the run length. Only serve runs for a
// fixed time; campaign and churn do a fixed amount of work sized to
// take about that long on two CPUs, so a faster program finishes
// sooner instead of doing more.
type sizes struct {
	serve    serveConfig
	campaign campaignConfig
	churn    churnConfig
}

func sizesFor(seconds int) sizes {
	return sizes{
		serve: serveConfig{
			Scale: 10, Cookies: 1024, Duration: time.Duration(seconds) * time.Second,
			Warmup: 256, SetupReps: 7, Direct: 4096,
		},
		// About 2000 cookies x 28 days at 10 s; days scale the work
		// linearly, where more cookies would also grow the list every
		// first sync downloads.
		campaign: campaignConfig{Clients: 2000, Days: max(28*seconds/10, 1), WindowDays: 7, SetupReps: 7},
		churn:    churnConfig{Scale: 10, Bursts: 32 * seconds, Adds: 64, Removes: 16, SetupReps: 7},
	}
}

// measure runs one workload: untraced, and for a traced run once more
// with spans, keeping the per-layer metrics of the traced pass.
func measure(ctx context.Context, name string, seed int64, sz sizes, trace bool, dir string) (*outcome, error) {
	if trace {
		// Set-up time is an end-to-end metric; a traced run sets up once.
		sz.serve.SetupReps, sz.campaign.SetupReps, sz.churn.SetupReps = 1, 1, 1
	}
	storeDir := filepath.Join(dir, "stores")
	defer os.RemoveAll(storeDir) //nolint:errcheck // stores are not kept after a run
	ref := &campaignRef{dir: filepath.Join(storeDir, "campaign-ref")}
	pass := func(tr *tracer) (*outcome, error) {
		switch name {
		case "serve":
			return runServe(ctx, sz.serve, seed, storeDir, tr)
		case "campaign":
			return runCampaign(ctx, sz.campaign, seed, storeDir, tr, ref)
		case "churn":
			return runChurn(ctx, sz.churn, seed, tr)
		}
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	base, err := pass(nil)
	if err != nil || !trace {
		return base, err
	}
	tr := newTracer()
	traced, err := pass(tr)
	if err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(dir, "spans-"+name+".tsv")); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	// The runtime layer is reported from the untraced pass, next to the
	// end-to-end metrics it explains; the traced pass's own allocations
	// would otherwise show up as collector work.
	for _, k := range []string{"runtime.gc_cycles", "runtime.gc_cpu_frac"} {
		traced.values[k] = base.values[k]
	}
	traced.values["trace.overhead_pct"] = 100 * (base.values["ops_per_s"]/traced.values["ops_per_s"] - 1)
	traced.attempted += base.attempted
	traced.failed += base.failed
	traced.problems = append(base.problems, traced.problems...)
	traced.notes = append(traced.notes, fmt.Sprintf("untraced pass: %.1f ops/s", base.values["ops_per_s"]))
	return traced, nil
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: serve, campaign, churn or all")
	seed := fs.Int64("seed", 0, "seed the workload's inputs are made from (required)")
	seconds := fs.Int("seconds", 10, "run length in seconds; sizes every workload")
	trace := fs.Int("trace", 0, "1 runs the workload traced and reports the per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "run"), "directory for probe stores and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	seedSet := false
	fs.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "seed" })
	switch {
	case !seedSet:
		fmt.Fprintln(stderr, "perfbench: -seed is required")
		return 2
	case *seconds < 1:
		fmt.Fprintln(stderr, "perfbench: -seconds must be at least 1")
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	case *name != "all" && !slices.Contains(workloadNames, *name):
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *name == "all" {
		return runAll(ctx, args, stdout, stderr)
	}

	registry := endToEnd
	if *trace == 1 {
		registry = perLayer
	}
	o, err := measure(ctx, *name, *seed, sizesFor(*seconds), *trace == 1, *out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	printTable(stdout, *name, *seed, *trace == 1, o)
	res := result{Attempted: o.attempted, Failed: o.failed, Metrics: make(map[string]value)}
	for _, m := range registry {
		v, ok := o.values[m.name]
		if !ok && *trace == 0 {
			o.fail("end-to-end metric %s was not measured", m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			o.fail("metric %s is %v", m.name, v)
			v = 0
		}
		res.Metrics[m.name] = value{Value: v, Unit: m.unit}
	}
	for _, p := range o.problems {
		fmt.Fprintf(stdout, "CHECK FAILED [%s]: %s\n", *name, p)
	}
	res.Correct = len(o.problems) == 0
	return emit(res, stdout, stderr)
}

// emit prints the result line and returns the exit code it implies.
func emit(res result, stdout, stderr io.Writer) int {
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in a process of its own, so each reports
// its own peak RSS and starts from a fresh heap, and merges their
// results with each metric named after its workload ("serve.ops_per_s").
func runAll(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res := result{Correct: true, Metrics: make(map[string]value)}
	for _, n := range workloadNames {
		// A later -workload overrides "all".
		cmd := exec.CommandContext(ctx, exe, append(slices.Clone(args), "-workload", n)...)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, stderr
		runErr := cmd.Run()
		lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", n, errors.Join(runErr, err))
			return 1
		}
		for _, l := range lines[:len(lines)-1] {
			fmt.Fprintln(stdout, l)
		}
		for k, v := range r.Metrics {
			res.Metrics[n+"."+k] = v
		}
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		res.Correct = res.Correct && r.Correct && runErr == nil
	}
	return emit(res, stdout, stderr)
}

// printTable writes a workload's metrics for a human reader: every
// end-to-end metric, then every per-layer value the run measured.
func printTable(w io.Writer, name string, seed int64, traced bool, o *outcome) {
	mode := "untraced"
	if traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (seed %d, %s): %d attempted, %d failed\n", name, seed, mode, o.attempted, o.failed)
	for _, n := range o.notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if v, ok := o.values[m.name]; ok {
			fmt.Fprintf(w, "   %-32s %16.4f %s\n", m.name, v, m.unit)
		}
	}
}

// Command perfbench is the repository's benchmark. It runs one workload
// for a fixed time, checks every output against its golden bytes, and
// prints one JSON result line as the last line of standard output. Build
// and run it from the repository root with
//
//	bash perfbench/run.sh --workload eval-all --seed 1 --seconds 15 --trace 0
//
// Workloads:
//
//	eval-all      `experiments all` at its default flags, one merged
//	              campaign with a fresh single-file checkpoint
//	paper-table3  `experiments -paper -windows 1 -seeds 6 table3`
//	serve-mixed   an in-process journaled server under an open-loop,
//	              multi-tenant Poisson load over loopback HTTP
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// adds one traced pass and reports the per-layer ledger instead. It must
// run from the repository root (it reads experiments_output.txt and the
// goldens under perfbench/golden) and writes only below .bench_build.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 9

// options is one invocation's settings.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	short    bool    // smoke scale, used by the benchmark's own tests
	root     string  // checkout root
	work     string  // scratch directory for checkpoints and journals
	workers  int     // simulations in flight (= client connections)
	rate     float64 // serve-mixed offered requests per second
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	failures []string
	notes    []string
}

func newResult() *result { return &result{Metrics: map[string]metric{}} }

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

func (r *result) fail(msg string) {
	r.Failed++
	r.failures = append(r.failures, msg)
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) failedPct() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return 100 * float64(r.Failed) / float64(r.Attempted)
}

// firstDiff describes where two outputs first differ.
func firstDiff(got, want []byte) string {
	n := min(len(got), len(want))
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			line := 1 + strings.Count(string(want[:i]), "\n")
			return fmt.Sprintf("first difference at byte %d, line %d", i, line)
		}
	}
	return fmt.Sprintf("lengths %d and %d", len(got), len(want))
}

func run(ctx context.Context, o options) (*result, error) {
	switch o.workload {
	case "eval-all":
		return runBatch(ctx, evalAll(o.short), o)
	case "paper-table3":
		return runBatch(ctx, paperTable3(o.short), o)
	case "serve-mixed":
		return runServe(ctx, o)
	}
	return nil, fmt.Errorf("unknown workload %q (eval-all, paper-table3, serve-mixed)", o.workload)
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "eval-all, paper-table3 or serve-mixed")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed (serve-mixed schedule; the batch workloads are fixed evaluations)")
	flag.IntVar(&o.seconds, "seconds", 15, "measured time per run")
	flag.IntVar(&o.trace, "trace", 0, "1: add a traced pass and report the per-layer ledger")
	flag.Float64Var(&o.rate, "rate", serveRate, "serve-mixed offered requests per second (for rate sweeps; runs use the default)")
	flag.Parse()
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if o.rate <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --rate must be positive")
		os.Exit(2)
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	o.root = root
	o.work = filepath.Join(root, ".bench_build", fmt.Sprintf("work-%s-%d", o.workload, os.Getpid()))
	o.workers = runtime.NumCPU()
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run from the repository root:", err)
		os.Exit(1)
	}

	res, err := run(context.Background(), o)
	os.RemoveAll(o.work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	fmt.Fprintf(os.Stderr, "perfbench: workload=%s seed=%d seconds=%d trace=%d nproc=%d GOMAXPROCS=%d\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	for _, n := range res.notes {
		fmt.Fprintln(os.Stderr, "perfbench:", n)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-28s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, f := range res.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// Command perfbench is the repository's benchmark. It imports the
// analyzer from outside — the public ipcp package, internal/suite and
// the layer packages — and never patches them.
//
// One process runs one named workload (study, edit-loop, serve,
// deep-expr; "all" runs each in turn in a child process). The inputs
// are generated from -seed before any clock starts; the program only
// receives them. A run sets the program up several times and reports
// the median set-up time, then times a fixed number of operations —
// whole rounds of the workload's input set, sized by -seconds — and
// checks every answer against an oracle that does not come from the
// code under test's timed path.
//
//	perfbench -workload study -seed 1 -seconds 15 -trace 0
//
// prints the end-to-end metrics; -trace 1 runs the same operations
// once untraced and once with spans recorded around every call into a
// layer, and prints the per-layer metrics plus the tracing overhead.
// -repeat N re-runs the workload N times with consecutive seeds and
// prints each metric's median, quartiles and spread. The last line of
// standard output is always one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// See README.md for the workloads, the metrics and why each exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "nominal length of the timed phase; sets the fixed op count")
	trace := fs.Int("trace", 0, "1 = also run the traced pass and print per-layer metrics")
	repeat := fs.Int("repeat", 0, "steadiness mode: run the workload this many times with seeds seed, seed+1, ... and print each metric's quartiles")
	workDir := fs.String("work-dir", "", "directory for cache directories and span files (default: the system temp directory)")
	cold := fs.Bool("cold-setup", false, "internal: time one cold set-up of the workload in this process and print it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be at least 1")
		return 2
	}
	opts := runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1, workDir: *workDir}
	if opts.workDir == "" {
		opts.workDir = os.TempDir()
	}
	if err := os.MkdirAll(opts.workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	if *repeat > 0 {
		return repeatRuns(*name, opts, *repeat, stdout, stderr)
	}
	if *name == "all" {
		return runAll(opts, stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s, or all)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *cold {
		opts.setupOnly = true
		if err := coldSetupChild(w, opts, stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: cold set-up: %v\n", w.name, err)
			return 1
		}
		return 0
	}
	res, err := runWorkload(w, opts, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := printResult(stdout, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// runOpts are the settings one run shares across its phases.
type runOpts struct {
	seed    int64
	seconds int
	trace   bool
	workDir string
	// setupOnly tells prepare that only the set-up will run (a cold
	// set-up child), so inputs and answers for the ops can be skipped.
	setupOnly bool
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printResult(w io.Writer, res *result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// printHeader records the run's environment, so a figure can be traced
// back to the machine and settings that produced it.
func printHeader(w io.Writer, name string, opts runOpts, ops int, tail tailChoice) {
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%d trace=%v\n", name, opts.seed, opts.seconds, opts.trace)
	fmt.Fprintf(w, "# nproc=%d GOMAXPROCS=%d go=%s os=%s/%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(w, "# ops=%d latency_tail_ms=p%s (%d samples beyond it)\n", ops, tail.label(), tail.beyond)
}

// printMetrics prints one metric per line, by name, with its unit.
func printMetrics(w io.Writer, ms map[string]metric) {
	for _, n := range sortedKeys(ms) {
		fmt.Fprintf(w, "%-34s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runChild runs this binary on one workload in a fresh process, so
// runs share no heap or cache state, and returns its output and
// parsed result line.
func runChild(name string, opts runOpts, stderr io.Writer) (string, *result, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", nil, err
	}
	trace := "0"
	if opts.trace {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(opts.seed, 10),
		"-seconds", strconv.Itoa(opts.seconds), "-trace", trace, "-work-dir", opts.workDir)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return out.String(), nil, fmt.Errorf("%s seed %d: %w", name, opts.seed, err)
	}
	text := strings.TrimRight(out.String(), "\n")
	last := text[strings.LastIndexByte(text, '\n')+1:]
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return text, nil, fmt.Errorf("%s seed %d: result line: %w", name, opts.seed, err)
	}
	return text, &res, nil
}

// runColdSetupChild times one cold set-up of a workload in a fresh
// process (see coldSetupChild).
func runColdSetupChild(name string, opts runOpts, stderr io.Writer) (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(opts.seed, 10),
		"-seconds", strconv.Itoa(opts.seconds), "-cold-setup", "-work-dir", opts.workDir)
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("cold set-up of %s: %w", name, err)
	}
	var ns int64
	if _, err := fmt.Sscanf(string(out), "cold_setup_ns %d", &ns); err != nil {
		return 0, fmt.Errorf("cold set-up of %s: reading %q: %w", name, out, err)
	}
	return time.Duration(ns), nil
}

// runAll runs every workload once, each in its own process, and
// prints every metric of every workload.
func runAll(opts runOpts, stdout, stderr io.Writer) int {
	all := &result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads {
		text, res, err := runChild(w.name, opts, stderr)
		fmt.Fprintln(stdout, text)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, v := range res.Metrics {
			all.Metrics[w.name+"/"+k] = v
		}
	}
	if err := printResult(stdout, all); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// repeatRuns is the steadiness mode: it runs one workload n times with
// seeds seed, seed+1, ... and prints, per metric, the median, the
// quartiles and the spread (interquartile distance over the median) —
// the figure a metric's bound must exceed.
func repeatRuns(name string, opts runOpts, n int, stdout, stderr io.Writer) int {
	if _, ok := workloadByName(name); !ok {
		fmt.Fprintf(stderr, "perfbench: -repeat needs one workload, got %q\n", name)
		return 2
	}
	values := map[string][]float64{}
	units := map[string]string{}
	sum := &result{Correct: true, Metrics: map[string]metric{}}
	for i := 0; i < n; i++ {
		o := opts
		o.seed = opts.seed + int64(i)
		_, res, err := runChild(name, o, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		sum.Correct = sum.Correct && res.Correct
		sum.Attempted += res.Attempted
		sum.Failed += res.Failed
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
		fmt.Fprintf(stdout, "# run %d seed %d correct=%v", i+1, o.seed, res.Correct)
		for _, k := range sortedKeys(res.Metrics) {
			fmt.Fprintf(stdout, " %s=%.4g", k, res.Metrics[k].Value)
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "%-34s %12s %12s %12s %8s %s\n", "metric", "q1", "median", "q3", "spread", "unit")
	for _, k := range sortedKeys(values) {
		q := quartiles(values[k])
		spread := 0.0
		if q[1] != 0 {
			spread = (q[2] - q[0]) / q[1]
		}
		fmt.Fprintf(stdout, "%-34s %12.6g %12.6g %12.6g %8.4f %s\n", k, q[0], q[1], q[2], spread, units[k])
		sum.Metrics[k] = metric{q[1], units[k]}
	}
	if err := printResult(stdout, sum); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// quartiles returns the three cut points of vs the way Python's
// statistics.quantiles(vs, n=4) computes them (the default exclusive
// method), so this mode's spreads match an outside check.
func quartiles(vs []float64) [3]float64 {
	d := append([]float64(nil), vs...)
	sort.Float64s(d)
	m := len(d)
	var q [3]float64
	if m == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	for i := 1; i <= 3; i++ {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		} else if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// setupReps is how many times a run performs the program's set-up;
// setup_s is the median, which keeps one slow repetition from moving
// the figure. A cold set-up costs a process start each, so it is
// repeated fewer times.
const (
	setupReps     = 9
	coldSetupReps = 7
)

// workload is one named input set and the operation run over it.
type workload struct {
	name string
	// maxprocs, when non-zero, is the GOMAXPROCS the run sets after
	// preparing its inputs. The sequential workloads use 1: their ops
	// come from one goroutine, and on a shared 2-CPU machine a
	// second P mostly adds scheduler and garbage-collector noise.
	maxprocs int
	// coldSetup marks a set-up that is the first work of its kind in a
	// process: the first round of ops, or the first CLI invocation.
	// Each repetition then runs in a fresh child process (see
	// coldSetupChild), and the run itself sets up once more, untimed.
	// Spreading the repetitions over processes also keeps one process
	// that happens to run slow throughout from setting the median.
	coldSetup bool
	// prepare generates the inputs from the seed and, where the oracle
	// does not need the program's own results, the expected answers.
	// None of it is timed.
	prepare func(opts runOpts) (runner, error)
}

// runner executes one workload's operations over prepared inputs.
type runner interface {
	// ops is the fixed number of operations in one timed phase: whole
	// rounds of the input set.
	ops() int
	// setup performs the program's own set-up, leaving the runner ready
	// for its first operation. It is timed and repeated, with a close
	// (untimed) before each repetition.
	setup() error
	// phase runs every operation once, checking each answer, and
	// records each op's outcome in out (len(out) == ops()). tr is nil
	// in the untraced pass.
	phase(tr *tracer, out []opResult) error
	// close releases everything setup acquired; it is a no-op when
	// nothing is set up.
	close() error
}

// setupChecker is implemented by runners whose oracle checks what the
// set-up computed, after the set-up's clock has stopped.
type setupChecker interface {
	checkSetup() error
}

// retainer is implemented by runners that hand back, after the timed
// phase, the state a caller of the program would still hold: the
// programs and reports of a round, or the last invocation's. The live
// heap is read with it referenced.
type retainer interface {
	retain() (any, error)
}

// layerFinisher is implemented by runners whose per-layer figures
// need work after a traced phase, such as scraping a server's
// counters.
type layerFinisher interface {
	finishTrace(tr *tracer) error
}

// opResult is one operation's latency and outcome; a wrong answer is
// an error like any other failure.
type opResult struct {
	lat time.Duration
	err error
}

// sequential runs len(out) operations one after another, timing each.
func sequential(out []opResult, tr *tracer, op func(i int, ot *opTrace) error) {
	for i := range out {
		ot := tr.beginOp(i)
		t0 := time.Now()
		err := op(i, ot)
		out[i] = opResult{lat: time.Since(t0), err: err}
		ot.end()
	}
}

// rounds converts a nominal run length into a whole number of rounds
// of the input set, given what one round cost when the benchmark was
// defined (2 CPUs). The count depends only on -seconds, so the parent
// and the change run exactly the same operations.
func rounds(seconds int, roundSeconds float64) int {
	n := int(math.Round(float64(seconds) / roundSeconds))
	if n < 1 {
		n = 1
	}
	return n
}

// runtimeSample reads the process counters a phase is measured by.
type runtimeSample struct {
	wall     time.Time
	cpu      time.Duration // user + system
	allocs   uint64        // cumulative heap bytes allocated
	gcCycles uint64
	gcCPU    float64 // cumulative GC CPU seconds (runtime estimate)
	totalCPU float64 // cumulative CPU seconds available to the runtime
}

var sampleNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readSample() runtimeSample {
	ms := make([]metrics.Sample, len(sampleNames))
	for i, n := range sampleNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return runtimeSample{
		wall:     time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs:   ms[0].Value.Uint64(),
		gcCycles: ms[1].Value.Uint64(),
		gcCPU:    ms[2].Value.Float64(),
		totalCPU: ms[3].Value.Float64(),
	}
}

// phaseStats is what one timed pass over the operations measured.
type phaseStats struct {
	results      []opResult
	failed       int
	wall, cpu    time.Duration
	allocBytes   uint64
	gcCycles     uint64
	gcCPU, total float64
}

// settle lets work left over from earlier steps finish before a clock
// starts: it flushes the file system's pending writes (a removed cache
// directory, a previous process's files), whose journal commit an
// fsync inside the measured step would otherwise wait for, and it
// collects the heap.
func settle() {
	syscall.Sync()
	runtime.GC()
}

func timedPhase(r runner, tr *tracer, results []opResult) (phaseStats, error) {
	settle()
	before := readSample()
	err := r.phase(tr, results)
	after := readSample()
	if err != nil {
		return phaseStats{}, err
	}
	ps := phaseStats{
		results:    results,
		wall:       after.wall.Sub(before.wall),
		cpu:        after.cpu - before.cpu,
		allocBytes: after.allocs - before.allocs,
		gcCycles:   after.gcCycles - before.gcCycles,
		gcCPU:      after.gcCPU - before.gcCPU,
		total:      after.totalCPU - before.totalCPU,
	}
	for _, res := range results {
		if res.err != nil {
			ps.failed++
		}
	}
	return ps, nil
}

// tailChoice is the percentile latency_tail_ms reports: the highest
// of a few standard percentiles with at least tailMinBeyond samples
// beyond it at the run's op count. A percentile with only a dozen
// samples beyond it moves with every stray delay: edit-loop's p99 (12
// beyond) read 1.60–1.89 times its median across seeds, its p95 (60
// beyond) 1.44–1.50 times.
type tailChoice struct {
	p      float64
	beyond int
}

func (t tailChoice) label() string { return fmt.Sprintf("%g", t.p) }

var tailCandidates = []float64{99, 95, 90, 75, 50}

const tailMinBeyond = 50

func chooseTail(n int) tailChoice {
	for _, p := range tailCandidates {
		if beyond := n - rankIndex(p, n) - 1; beyond >= tailMinBeyond {
			return tailChoice{p: p, beyond: beyond}
		}
	}
	return tailChoice{p: 50, beyond: n - rankIndex(50, n) - 1}
}

// rankIndex is the nearest-rank index of percentile p among n sorted
// samples.
func rankIndex(p float64, n int) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// latencies returns the sorted per-op latencies in milliseconds. A
// failed op counts as missing every latency limit, so it sorts last
// as +Inf.
func latencies(results []opResult) []float64 {
	ls := make([]float64, len(results))
	for i, r := range results {
		if r.err != nil {
			ls[i] = math.Inf(1)
			continue
		}
		ls[i] = float64(r.lat) / 1e6
	}
	sort.Float64s(ls)
	return ls
}

// finite keeps a metric JSON-encodable: an infinite latency (every op
// at that rank failed) is reported as a huge number, and the run is
// already marked incorrect.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return math.MaxFloat32
	}
	return v
}

func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// liveHeapMB forces a collection and returns the live heap. The second
// collection empties the sync.Pool victim caches the first one left.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// checkSetup runs the oracle's check of a set-up, for runners that
// have one.
func checkSetup(r runner) error {
	if c, ok := r.(setupChecker); ok {
		return c.checkSetup()
	}
	return nil
}

// setUp performs the set-up and then the oracle's check of it.
func setUp(r runner) error {
	if err := r.setup(); err != nil {
		return err
	}
	return checkSetup(r)
}

// measureSetup times the workload's set-up several times and leaves
// the runner set up. A cold set-up is timed in fresh child processes;
// the runner then sets up once more, untimed.
func measureSetup(w workload, r runner, opts runOpts, stderr io.Writer) ([]time.Duration, error) {
	if w.coldSetup {
		ds := make([]time.Duration, coldSetupReps)
		for i := range ds {
			d, err := runColdSetupChild(w.name, opts, stderr)
			if err != nil {
				return nil, err
			}
			ds[i] = d
		}
		return ds, setUp(r)
	}
	ds := make([]time.Duration, setupReps)
	for i := range ds {
		if err := r.close(); err != nil {
			return nil, fmt.Errorf("tearing down a set-up: %w", err)
		}
		settle()
		t0 := time.Now()
		if err := r.setup(); err != nil {
			return nil, err
		}
		ds[i] = time.Since(t0)
		if err := checkSetup(r); err != nil {
			return nil, err
		}
	}
	return ds, nil
}

// coldSetupChild is the body of a child process started by
// measureSetup: prepare the inputs, time the first set-up in the
// process, check it, and print the time.
func coldSetupChild(w workload, opts runOpts, stdout io.Writer) error {
	r, err := w.prepare(opts)
	if err != nil {
		return fmt.Errorf("prepare: %w", err)
	}
	defer r.close()
	if w.maxprocs > 0 {
		runtime.GOMAXPROCS(w.maxprocs)
	}
	settle()
	t0 := time.Now()
	if err := r.setup(); err != nil {
		return err
	}
	d := time.Since(t0)
	if err := checkSetup(r); err != nil {
		return err
	}
	if err := r.close(); err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "cold_setup_ns %d\n", d.Nanoseconds())
	return err
}

// runWorkload runs one workload end to end and returns its result
// line; progress and the human-readable metric table go to out.
func runWorkload(w workload, opts runOpts, out, stderr io.Writer) (*result, error) {
	r, err := w.prepare(opts)
	if err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	defer r.close()
	if w.maxprocs > 0 {
		runtime.GOMAXPROCS(w.maxprocs)
	}
	n := r.ops()
	tail := chooseTail(n)
	printHeader(out, w.name, opts, n, tail)
	results := make([]opResult, n)
	// The inputs and expected answers are live from here on; the
	// program's own retained heap is measured above this baseline.
	baseline := liveHeapMB()

	var setups []time.Duration
	if opts.trace {
		err = setUp(r)
	} else {
		setups, err = measureSetup(w, r, opts, stderr)
		fmt.Fprintf(out, "# set-up repetitions (s):")
		for _, d := range setups {
			fmt.Fprintf(out, " %.4f", d.Seconds())
		}
		fmt.Fprintln(out)
	}
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}

	plain, err := timedPhase(r, nil, results)
	if err != nil {
		return nil, fmt.Errorf("timed phase: %w", err)
	}
	res := &result{Attempted: n, Failed: plain.failed, Metrics: map[string]metric{}}
	for i, op := range plain.results {
		if op.err != nil && i < 5 {
			fmt.Fprintf(out, "# op %d failed: %v\n", i, op.err)
		}
	}
	fmt.Fprintf(out, "%-34s %14.6g ratio (attempted %d, failed %d)\n", "error_rate", float64(plain.failed)/float64(n), n, plain.failed)

	if !opts.trace {
		var kept any
		if rt, ok := r.(retainer); ok {
			if kept, err = rt.retain(); err != nil {
				return nil, fmt.Errorf("retained state: %w", err)
			}
		}
		heapMB := liveHeapMB() - baseline
		runtime.KeepAlive(kept)
		lat := latencies(plain.results)
		res.Metrics = map[string]metric{
			"setup_s":          {median(setups).Seconds(), "s"},
			"throughput_ops_s": {float64(n) / plain.wall.Seconds(), "1/s"},
			"latency_p50_ms":   {finite(lat[rankIndex(50, n)]), "ms"},
			"latency_tail_ms":  {finite(lat[rankIndex(tail.p, n)]), "ms"},
			"cpu_ms_per_op":    {float64(plain.cpu) / 1e6 / float64(n), "ms"},
			"alloc_mb_per_op":  {float64(plain.allocBytes) / (1 << 20) / float64(n), "MB"},
			"heap_retained_mb": {heapMB, "MB"},
		}
	} else {
		plainStats := plain
		plainStats.results = nil
		if err := r.close(); err != nil {
			return nil, fmt.Errorf("tearing down a set-up: %w", err)
		}
		if err := setUp(r); err != nil {
			return nil, fmt.Errorf("setup before the traced phase: %w", err)
		}
		tr := newTracer()
		traced, err := timedPhase(r, tr, make([]opResult, n))
		if err != nil {
			return nil, fmt.Errorf("traced phase: %w", err)
		}
		if f, ok := r.(layerFinisher); ok {
			if err := f.finishTrace(tr); err != nil {
				return nil, fmt.Errorf("finishing the trace: %w", err)
			}
		}
		res.Failed += traced.failed
		res.Attempted += n
		res.Metrics = layerMetrics(tr, traced, plainStats)
		path := filepath.Join(opts.workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, opts.seed))
		if err := tr.write(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(out, "# %d spans written to %s\n", len(tr.spans), path)
	}
	if err := r.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	res.Correct = res.Failed == 0
	printMetrics(out, res.Metrics)
	return res, nil
}

package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ipcp/internal/core"
	"ipcp/internal/incr"
	"ipcp/internal/mf/parser"
	"ipcp/internal/mf/sema"
	"ipcp/internal/suite"
	"ipcp/internal/summary"
)

func TestGeneratorsFollowTheSeed(t *testing.T) {
	if a, b := deepExprSources(7, 4, 6), deepExprSources(7, 4, 6); !reflect.DeepEqual(a, b) {
		t.Error("deep-expr inputs differ for the same seed")
	}
	if a, b := deepExprSources(7, 4, 6), deepExprSources(8, 4, 6); reflect.DeepEqual(a, b) {
		t.Error("deep-expr inputs are the same for different seeds")
	}

	base := suite.Generate("trfd", suite.DefaultScale).Source
	chain := func(seed int64) []string {
		c, err := editChain(base, 4, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		return c.sources()
	}
	if !reflect.DeepEqual(chain(3), chain(3)) {
		t.Error("edit chains differ for the same seed")
	}
	if reflect.DeepEqual(chain(3), chain(4)) {
		t.Error("edit chains are the same for different seeds")
	}

	order := func(seed int64) []string {
		r, err := prepareStudy(runOpts{seed: seed, seconds: 1})
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, c := range r.(*studyRunner).cells[0] {
			out = append(out, c.prog.Name+"/"+c.col.key)
		}
		return out
	}
	if !reflect.DeepEqual(order(5), order(5)) {
		t.Error("study cell order differs for the same seed")
	}
	if reflect.DeepEqual(order(5), order(6)) {
		t.Error("study cell order is the same for different seeds")
	}
}

// literalValues parses src and lists its executable integer literals.
func literalValues(t *testing.T, src string) []int64 {
	t.Helper()
	file, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("edit does not parse: %v", err)
	}
	var vs []int64
	for _, l := range intLits(file) {
		vs = append(vs, l.Value)
	}
	return vs
}

func TestEveryEditChangesExactlyOneLiteral(t *testing.T) {
	for _, base := range []string{
		suite.Generate("doduc", suite.DefaultScale).Source,
		suite.Random(42, serveProgramSize).Source,
	} {
		chain, err := editChain(base, 25, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		prev := literalValues(t, base)
		for i, src := range chain.sources()[1:] {
			cur := literalValues(t, src)
			if len(cur) != len(prev) {
				t.Fatalf("edit %d: %d literals, previous source had %d", i, len(cur), len(prev))
			}
			changed := 0
			for k := range cur {
				if cur[k] != prev[k] {
					changed++
				}
			}
			if changed != 1 {
				t.Fatalf("edit %d changed %d literals, want 1", i, changed)
			}
			prev = cur
		}
	}
}

func TestChainCursorMatchesTheChain(t *testing.T) {
	base := suite.Random(42, serveProgramSize).Source
	chain, err := editChain(base, 12, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	all := chain.sources()
	if all[0] != base || len(all) != 13 {
		t.Fatalf("chain has %d sources, first is base: %v", len(all), all[0] == base)
	}
	c := chain.cursor()
	for _, v := range []int{5, 5, 6, 2, 12, 0, 1} {
		if got := c.at(v); got != all[v] {
			t.Errorf("cursor at %d differs from the materialized chain", v)
		}
	}
}

func TestDeepExprInputsHaveTheChainLength(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		for i, src := range deepExprSources(seed, deepExprInputs, deepChainLength) {
			for k := 1; k <= deepChainLength+1; k++ {
				step := fmt.Sprintf("X%d = X%d*X%d + X%d\n", k, k-1, k-1, k-1)
				if got, want := strings.Count(src, step), map[bool]int{true: 1, false: 0}[k <= deepChainLength]; got != want {
					t.Fatalf("seed %d input %d: step %d appears %d times, want %d", seed, i, k, got, want)
				}
			}
			if got := strings.Count(src, "\nSUBROUTINE "); got != deepAround+1 {
				t.Fatalf("seed %d input %d: %d subroutines, want %d", seed, i, got, deepAround+1)
			}
		}
	}
}

// incrOutcome is everything an incremental run reports, minus the
// result's IR and timings.
type incrOutcome struct {
	Answer               answer
	Stats                incr.Stats
	Passes, Evals, Round int
	Shape                core.JFShapeStats
}

func runChain(t *testing.T, srcs []string, wrap bool) []incrOutcome {
	t.Helper()
	var store summary.Store = summary.NewMemStore(0)
	var ts *timedStore
	if wrap {
		ts = &timedStore{inner: store, ot: newTracer().beginOp(0)}
		store = ts
	}
	eng := incr.NewEngine(store)
	var prev *summary.Snapshot
	var out []incrOutcome
	for i, src := range srcs {
		file, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := sema.Analyze(file)
		if err != nil {
			t.Fatal(err)
		}
		res, snap, st, err := eng.Analyze(sp, coreConfig(editConfig), prev)
		if err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
		prev = snap
		out = append(out, incrOutcome{answerOfResult(res), st, res.SolverPasses, res.JFEvaluations, res.DCERounds, res.JFShape})
	}
	if wrap && ts.gets.Load() == 0 {
		t.Error("the wrapper saw no Get")
	}
	return out
}

func TestTimedStoreIsTransparent(t *testing.T) {
	base := suite.Generate("doduc", suite.DefaultScale).Source
	chain, err := editChain(base, 6, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	srcs := chain.sources()
	if plain, wrapped := runChain(t, srcs, false), runChain(t, srcs, true); !reflect.DeepEqual(plain, wrapped) {
		t.Errorf("edit-chain outcomes differ with the timing wrapper:\nplain   %+v\nwrapped %+v", plain, wrapped)
	}
}

// TestTracedAndUntracedAgree runs every workload's operations once
// untraced and once traced; both passes check each answer against the
// same oracle, so a divergence fails an op.
func TestTracedAndUntracedAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := w.prepare(runOpts{seed: 2, seconds: 1, workDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			defer r.close()
			for _, tr := range []*tracer{nil, newTracer()} {
				if err := r.close(); err != nil {
					t.Fatal(err)
				}
				if err := setUp(r); err != nil {
					t.Fatal(err)
				}
				res := make([]opResult, r.ops())
				if err := r.phase(tr, res); err != nil {
					t.Fatal(err)
				}
				for i, op := range res {
					if op.err != nil {
						t.Fatalf("traced=%v op %d: %v", tr != nil, i, op.err)
					}
				}
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, ..., 10], n=4) == [2.75, 5.5, 8.25]
	if got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v", got)
	}
}

func TestTailChoice(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
	}{{7344, 99, 73}, {4860, 95, 243}, {1200, 95, 60}, {800, 90, 80}, {336, 75, 84}, {100, 50, 50}, {24000, 99, 240}} {
		if got := chooseTail(c.n); got.p != c.p || got.beyond != c.beyond {
			t.Errorf("chooseTail(%d) = %+v, want p%g with %d beyond", c.n, got, c.p, c.beyond)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists equal to
// what the benchmark prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside perfbench/")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	// deep-expr stays runnable by name but is left out of
	// BENCHMARK.json: its time figures spread wider than any bound the
	// format allows on the machine the benchmark was defined on (see
	// README.md).
	var names, want []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for _, n := range workloadNames() {
		if n != "deep-expr" {
			want = append(want, n)
		}
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, want)
	}
	var layers []string
	for _, m := range spec.PerLayer {
		layers = append(layers, m.Name+" "+m.Unit)
	}
	want = nil
	for _, m := range layerTable {
		want = append(want, m.name+" "+m.unit)
	}
	sort.Strings(layers)
	sort.Strings(want)
	if !reflect.DeepEqual(layers, want) {
		t.Errorf("BENCHMARK.json per_layer %v\nbenchmark prints %v", layers, want)
	}
	var e2e []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name+" "+m.Unit)
	}
	sort.Strings(e2e)
	if want := []string{"alloc_mb_per_op MB", "cpu_ms_per_op ms", "heap_retained_mb MB", "latency_p50_ms ms",
		"latency_tail_ms ms", "setup_s s", "throughput_ops_s 1/s"}; !reflect.DeepEqual(e2e, want) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark prints %v", e2e, want)
	}
}

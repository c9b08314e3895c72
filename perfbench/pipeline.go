package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"ipcp"
	"ipcp/internal/analysis/callgraph"
	"ipcp/internal/analysis/modref"
	"ipcp/internal/analysis/valnum"
	"ipcp/internal/core"
	"ipcp/internal/core/jump"
	"ipcp/internal/ir"
	"ipcp/internal/ir/irbuild"
	"ipcp/internal/mf/ast"
	"ipcp/internal/mf/lexer"
	"ipcp/internal/mf/parser"
	"ipcp/internal/mf/sema"
)

// answer is the part of an analysis result the oracles check: the
// substitution total (one cell of Table 2 or 3) and every CONSTANTS(p)
// entry, spelled "proc.name=value", sorted and kept as a count and a
// digest so that thousands of expected answers cost the harness's heap
// a few bytes each.
type answer struct {
	substituted int
	constants   int
	digest      [sha256.Size]byte
}

func (a answer) String() string {
	return fmt.Sprintf("%d substituted, %d constants (digest %x)", a.substituted, a.constants, a.digest[:4])
}

func newAnswer(substituted int, constants []string) answer {
	sort.Strings(constants)
	h := sha256.New()
	for _, c := range constants {
		h.Write([]byte(c))
		h.Write([]byte{'\n'})
	}
	a := answer{substituted: substituted, constants: len(constants)}
	h.Sum(a.digest[:0])
	return a
}

func answerOfReport(r *ipcp.Report) answer {
	var cs []string
	for _, p := range r.Procedures {
		for _, c := range p.Constants {
			cs = append(cs, fmt.Sprintf("%s.%s=%d", p.Name, c.Name, c.Value))
		}
	}
	return newAnswer(r.TotalSubstituted, cs)
}

func answerOfResult(r *core.Result) answer {
	var cs []string
	for name, p := range r.Procs {
		for _, c := range p.Constants {
			cs = append(cs, fmt.Sprintf("%s.%s=%d", name, c.Name, c.Value))
		}
	}
	return newAnswer(r.TotalSubstituted, cs)
}

// checkAnswer reports a mismatch against the oracle as an op failure.
func checkAnswer(got, want answer) error {
	if got != want {
		return fmt.Errorf("wrong answer: got %v, want %v", got, want)
	}
	return nil
}

// coreConfig spells a public configuration for the layer packages; the
// traced pass calls them directly.
func coreConfig(c ipcp.Config) core.Config {
	kinds := map[ipcp.JumpFunction]jump.Kind{
		ipcp.Literal:         jump.Literal,
		ipcp.Intraprocedural: jump.Intraprocedural,
		ipcp.PassThrough:     jump.PassThrough,
		ipcp.Polynomial:      jump.Polynomial,
	}
	return core.Config{
		Jump:             kinds[c.Jump],
		ReturnJFs:        c.ReturnJumpFunctions,
		MOD:              c.MOD,
		Complete:         c.Complete,
		DependenceSolver: c.DependenceSolver,
		NoWarmStart:      c.NoWarmStart,
		Workers:          c.Workers,
	}
}

// tracedLoad is ipcp.Load through the front-end layers, one span per
// call. After Parse, the lexer runs once more on its own (an extra
// span, outside the tracing overhead) so its share of the parser's
// time can be taken out: parser.ms_per_op is the Parse span minus the
// lexer span. On programs of a few hundred tokens the
// difference is within timer noise and can come out slightly negative.
func tracedLoad(ot *opTrace, src string) (*sema.Program, error) {
	var file *ast.File
	var err error
	ot.do("parser", func() { file, err = parser.Parse(src) })
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	var ntok int
	ot.extra("lexer", func() { ntok = len(lexer.New(src).All()) })
	ot.count("lexer.tokens", float64(ntok))
	var sp *sema.Program
	ot.do("sema", func() { sp, err = sema.Analyze(file) })
	if err != nil {
		return nil, fmt.Errorf("sema: %w", err)
	}
	return sp, nil
}

// tracedAnalyze is Program.Analyze through the layer packages. A plain
// configuration lowers (irbuild span) and propagates (core span:
// core.AnalyzeIR); a complete one calls core.AnalyzeErr, which lowers
// internally, so a separate lowering is timed and subtracted from the
// core figure. The MOD/REF, SSA and value-numbering stages inside core
// cannot be timed from outside, so each is timed on a fresh lowering
// and subtracted too; what remains is stages 1–4. The fresh lowering
// and the three stages are extra spans: work the untraced pass does
// not do, left out of the tracing overhead.
func tracedAnalyze(ot *opTrace, sp *sema.Program, cfg core.Config) *core.Result {
	var res *core.Result
	var irp *ir.Program
	if cfg.Complete {
		ot.do("core", func() {
			var err error
			// A nil Cancel hook cannot fail.
			res, err = core.AnalyzeErr(sp, cfg)
			if err != nil {
				panic(err)
			}
		})
		s := ot.extra("irbuild", func() { irp = irbuild.Build(sp) })
		ot.count("core.embedded_irbuild_ms", float64(s.End-s.Start)/1e6)
		ot.count("core.embedded_irbuild_mb", float64(s.Alloc)/(1<<20))
	} else {
		ot.do("irbuild", func() { irp = irbuild.Build(sp) })
		ot.do("core", func() { res = core.AnalyzeIR(irp, cfg) })
		ot.extra("irbuild.fresh", func() { irp = irbuild.Build(sp) })
	}
	outOfBandStages(ot, irp, cfg)
	ot.count("core.solver_passes", float64(res.SolverPasses))
	ot.count("core.jf_evals", float64(res.JFEvaluations))
	ot.count("core.jf_poly", float64(res.JFShape.Polynomial))
	ot.count("core.jf_support_sum", float64(res.JFShape.SupportSum))
	ot.count("dce.rounds", float64(res.DCERounds))
	return res
}

// outOfBandStages times, on a fresh lowering, the three whole-program
// and per-procedure analyses core runs before its stages: call graph
// plus MOD/REF, SSA construction, and value numbering (without return
// jump functions, which only core can supply).
func outOfBandStages(ot *opTrace, irp *ir.Program, cfg core.Config) {
	var mods *modref.Summary
	ot.extra("modref", func() { mods = modref.Compute(irp, callgraph.Build(irp)) })
	var oracle ir.ModOracle = ir.WorstCase
	if cfg.MOD {
		oracle = mods.Oracle()
	}
	ot.extra("ssa", func() {
		for _, p := range irp.Procs {
			p.BuildSSA(oracle)
		}
	})
	ot.extra("valnum", func() {
		for _, p := range irp.Procs {
			valnum.Analyze(p, nil)
		}
	})
}

// referenceAnswers is the oracle for incremental runs: a plain
// Analyze of every source of every chain, spread over the CPUs before
// any clock starts. out[l][v] is the answer for source v of chain l.
func referenceAnswers(logs []*editLog, cfg ipcp.Config) ([][]answer, error) {
	type item struct{ l, v int }
	var items []item
	out := make([][]answer, len(logs))
	for l, log := range logs {
		out[l] = make([]answer, log.len())
		for v := range out[l] {
			items = append(items, item{l, v})
		}
	}
	// Worker w takes items w, w+workers, ...: each chain's sources in
	// order, so a cursor per worker and chain advances one splice at a
	// time.
	workers := runtime.GOMAXPROCS(0)
	cursors := make([][]*chainCursor, workers)
	for w := range cursors {
		cursors[w] = make([]*chainCursor, len(logs))
		for l, log := range logs {
			cursors[w][l] = log.cursor()
		}
	}
	err := parallel(len(items), func(w, k int) error {
		it := items[k]
		p, err := ipcp.Load(cursors[w][it.l].at(it.v))
		if err != nil {
			return fmt.Errorf("chain %d source %d: %w", it.l, it.v, err)
		}
		out[it.l][it.v] = answerOfReport(p.Analyze(cfg))
		return nil
	})
	return out, err
}

// parallel runs fn(w, i) for i in 0..n-1 on one goroutine per CPU,
// goroutine w taking i = w, w+workers, ..., and returns the
// lowest-indexed error. It is for input preparation only.
func parallel(n int, fn func(w, i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				errs[i] = fn(w, i)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

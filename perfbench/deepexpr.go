package main

import (
	"fmt"
	"math/rand"
	"strings"

	"ipcp"
)

// deepChainLength is the doubling-chain length of every deep-expr
// input. Length 10 costs tens of milliseconds per analysis; each step
// roughly doubles or triples it, because the chain's value is an
// expression DAG whose tree form doubles per step.
const deepChainLength = 10

// deepExprSource renders one deep-expr input: a doubling chain
// X(i) = X(i-1)*X(i-1) + X(i-1) over the formal of CHAIN, whose last
// element is passed to a call. The chain is the same in every input;
// r varies only the call structure around it — how many of the
// deepAround small procedures are pass-through wrappers leading from
// the main program to CHAIN, how many are sinks the result flows
// through, and how many sit beside it unrelated — and the literal that
// enters. Every input has the same number of procedures, so the ops
// are the same size whatever the seed.
func deepExprSource(r *rand.Rand, length int) string {
	var b strings.Builder
	wrappers := 1 + r.Intn(3)
	sinks := 1 + r.Intn(3)
	sides := deepAround - wrappers - sinks
	seed := 1 + r.Intn(4)

	b.WriteString("PROGRAM DEEP\n  INTEGER K\n")
	fmt.Fprintf(&b, "  K = %d\n", seed)
	for s := 0; s < sides; s++ {
		fmt.Fprintf(&b, "  CALL SIDE%d(K + %d)\n", s, 1+r.Intn(9))
	}
	b.WriteString("  CALL W1(K)\nEND\n")

	for w := 1; w <= wrappers; w++ {
		next := fmt.Sprintf("W%d", w+1)
		if w == wrappers {
			next = "CHAIN"
		}
		fmt.Fprintf(&b, "\nSUBROUTINE W%d(N)\n  INTEGER N\n  CALL %s(N)\n  RETURN\nEND\n", w, next)
	}

	b.WriteString("\nSUBROUTINE CHAIN(N)\n  INTEGER N")
	for i := 0; i <= length; i++ {
		fmt.Fprintf(&b, ", X%d", i)
	}
	b.WriteString("\n  X0 = N\n")
	for i := 1; i <= length; i++ {
		fmt.Fprintf(&b, "  X%d = X%d*X%d + X%d\n", i, i-1, i-1, i-1)
	}
	fmt.Fprintf(&b, "  CALL S1(X%d)\n  RETURN\nEND\n", length)

	for s := 1; s <= sinks; s++ {
		fmt.Fprintf(&b, "\nSUBROUTINE S%d(V)\n  INTEGER V, Y\n  Y = V + %d\n", s, 1+r.Intn(9))
		if s < sinks {
			fmt.Fprintf(&b, "  CALL S%d(Y)\n", s+1)
		}
		b.WriteString("  RETURN\nEND\n")
	}

	for s := 0; s < sides; s++ {
		fmt.Fprintf(&b, "\nSUBROUTINE SIDE%d(M)\n  INTEGER M, Z\n  Z = M * %d\n  RETURN\nEND\n", s, 2+r.Intn(5))
	}
	return b.String()
}

// deepAround is the number of procedures around CHAIN in every input.
const deepAround = 6

// deepExprInputs is the size of the deep-expr input set: distinct call
// structures around the same chain, run in whole rounds.
const deepExprInputs = 8

// deepRoundSeconds is what one round took on 2 CPUs when the benchmark
// was defined.
const deepRoundSeconds = 0.24

// deepExprConfig is the flavor whose jump functions carry the whole
// chain: polynomial, with MOD and return jump functions.
var deepExprConfig = ipcp.Config{Jump: ipcp.Polynomial, ReturnJumpFunctions: true, MOD: true, Workers: 1}

type deepRunner struct {
	srcs   []string
	want   []answer // set by the first checked set-up
	rounds int

	setupRound []any // the set-up round's programs and reports, until checked
}

func deepExprSources(seed int64, n, length int) []string {
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	for i := range out {
		out[i] = deepExprSource(rng, length)
	}
	return out
}

func prepareDeepExpr(opts runOpts) (runner, error) {
	return &deepRunner{
		srcs:   deepExprSources(opts.seed, deepExprInputs, deepChainLength),
		rounds: rounds(opts.seconds, deepRoundSeconds),
	}, nil
}

func (r *deepRunner) ops() int { return r.rounds * len(r.srcs) }

// setup is one round of the inputs, the first in a process. Its
// answers are checked by checkSetup once the clock has stopped.
func (r *deepRunner) setup() error {
	kept, err := r.round()
	r.setupRound = kept
	return err
}

// checkSetup is the oracle. The first time, it checks every input's
// report with the interpreter (Program.VerifyConstants): each constant
// the analysis reports must match execution. The verified answers are
// what every later op must reproduce; a later set-up is compared with
// them.
func (r *deepRunner) checkSetup() error {
	kept := r.setupRound
	r.setupRound = nil
	first := r.want == nil
	if first {
		r.want = make([]answer, len(r.srcs))
	}
	for i := range r.srcs {
		p, rep := kept[2*i].(*ipcp.Program), kept[2*i+1].(*ipcp.Report)
		got := answerOfReport(rep)
		if !first {
			if err := checkAnswer(got, r.want[i]); err != nil {
				return fmt.Errorf("input %d: %w", i, err)
			}
			continue
		}
		if bad := p.VerifyConstants(rep, ipcp.ExecOptions{}); len(bad) > 0 {
			return fmt.Errorf("input %d: execution contradicts the analysis: %s", i, bad[0])
		}
		r.want[i] = got
	}
	return nil
}

// round analyzes every input once and returns the programs and
// reports.
func (r *deepRunner) round() ([]any, error) {
	var kept []any
	for i, src := range r.srcs {
		p, err := ipcp.Load(src)
		if err != nil {
			return nil, fmt.Errorf("input %d: %w", i, err)
		}
		kept = append(kept, p, p.Analyze(deepExprConfig))
	}
	return kept, nil
}

func (r *deepRunner) phase(tr *tracer, out []opResult) error {
	if r.want == nil {
		return fmt.Errorf("no checked set-up")
	}
	sequential(out, tr, func(i int, ot *opTrace) error {
		k := i % len(r.srcs)
		return r.run(r.srcs[k], r.want[k], ot)
	})
	return nil
}

func (r *deepRunner) close() error { return nil }

// retain analyzes the inputs once more, untimed, and keeps every
// program and report.
func (r *deepRunner) retain() (any, error) { return r.round() }

func (r *deepRunner) run(src string, want answer, ot *opTrace) error {
	if ot == nil {
		p, err := ipcp.Load(src)
		if err != nil {
			return err
		}
		return checkAnswer(answerOfReport(p.Analyze(deepExprConfig)), want)
	}
	sp, err := tracedLoad(ot, src)
	if err != nil {
		return err
	}
	return checkAnswer(answerOfResult(tracedAnalyze(ot, sp, coreConfig(deepExprConfig))), want)
}

package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"

	"ipcp"
	"ipcp/internal/core"
	"ipcp/internal/ir"
	"ipcp/internal/ir/irbuild"
	"ipcp/internal/suite"
)

// study is the paper's experiment: every cell of Tables 2 and 3 over
// the 12 suite programs. The seed shuffles the cell order of each
// round; the cells themselves are fixed, because the oracle is the
// measured table.

//go:embed expected_tables.json
var expectedTablesJSON []byte

// studyRoundSeconds is what one round (108 cells) took on 2 CPUs when
// the benchmark was defined.
const studyRoundSeconds = 0.22

// studyColumn is one column of Table 2 or 3; intraOnly marks the
// strictly intraprocedural baseline (Table 3, column 4).
type studyColumn struct {
	key       string
	cfg       ipcp.Config
	intraOnly bool
}

// studyColumns lists the distinct columns of Tables 2 and 3 in the
// order of expected_tables.json (Table 3's "Poly w/ MOD" is Table 2's
// "Polynomial" and is not repeated).
var studyColumns = []studyColumn{
	{key: "poly", cfg: ipcp.Config{Jump: ipcp.Polynomial, ReturnJumpFunctions: true, MOD: true}},
	{key: "pass", cfg: ipcp.Config{Jump: ipcp.PassThrough, ReturnJumpFunctions: true, MOD: true}},
	{key: "intra", cfg: ipcp.Config{Jump: ipcp.Intraprocedural, ReturnJumpFunctions: true, MOD: true}},
	{key: "literal", cfg: ipcp.Config{Jump: ipcp.Literal, ReturnJumpFunctions: true, MOD: true}},
	{key: "poly_norjf", cfg: ipcp.Config{Jump: ipcp.Polynomial, MOD: true}},
	{key: "pass_norjf", cfg: ipcp.Config{Jump: ipcp.PassThrough, MOD: true}},
	{key: "poly_nomod", cfg: ipcp.Config{Jump: ipcp.Polynomial, ReturnJumpFunctions: true}},
	{key: "complete", cfg: ipcp.Config{Jump: ipcp.Polynomial, ReturnJumpFunctions: true, MOD: true, Complete: true}},
	{key: "intra_only", intraOnly: true},
}

type expectedTables struct {
	Scale    int              `json:"scale"`
	Columns  []string         `json:"columns"`
	Programs map[string][]int `json:"programs"`
}

func loadExpectedTables() (*expectedTables, error) {
	var t expectedTables
	if err := json.Unmarshal(expectedTablesJSON, &t); err != nil {
		return nil, fmt.Errorf("expected_tables.json: %w", err)
	}
	if t.Scale != suite.DefaultScale {
		return nil, fmt.Errorf("expected_tables.json is for scale %d, suite generates scale %d", t.Scale, suite.DefaultScale)
	}
	if len(t.Columns) != len(studyColumns) {
		return nil, fmt.Errorf("expected_tables.json has %d columns, want %d", len(t.Columns), len(studyColumns))
	}
	for i, c := range studyColumns {
		if t.Columns[i] != c.key {
			return nil, fmt.Errorf("expected_tables.json column %d is %q, want %q", i, t.Columns[i], c.key)
		}
	}
	return &t, nil
}

type studyCell struct {
	prog   *suite.Program
	col    studyColumn
	expect int
}

type studyRunner struct {
	cells  [][]studyCell // one shuffled order per round
	rounds int
}

func prepareStudy(opts runOpts) (runner, error) {
	want, err := loadExpectedTables()
	if err != nil {
		return nil, err
	}
	var base []studyCell
	for _, p := range suite.Programs() {
		row, ok := want.Programs[p.Name]
		if !ok || len(row) != len(studyColumns) {
			return nil, fmt.Errorf("expected_tables.json has no full row for %s", p.Name)
		}
		for i, c := range studyColumns {
			base = append(base, studyCell{prog: p, col: c, expect: row[i]})
		}
	}
	n := rounds(opts.seconds, studyRoundSeconds)
	rng := rand.New(rand.NewSource(opts.seed))
	r := &studyRunner{rounds: n, cells: make([][]studyCell, n+1)}
	for i := range r.cells {
		order := append([]studyCell(nil), base...)
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		r.cells[i] = order
	}
	return r, nil
}

func (r *studyRunner) ops() int { return r.rounds * len(r.cells[0]) }

// setup is one round: the first in a process, the set-up cost of the
// analysis path. Its cells use the extra shuffled order beyond the
// timed rounds and are checked like any other.
func (r *studyRunner) setup() error {
	for i, c := range r.cells[r.rounds] {
		if _, err := r.cell(c, nil); err != nil {
			return fmt.Errorf("cell %d: %w", i, err)
		}
	}
	return nil
}

func (r *studyRunner) phase(tr *tracer, out []opResult) error {
	per := len(r.cells[0])
	sequential(out, tr, func(i int, ot *opTrace) error {
		_, err := r.cell(r.cells[i/per][i%per], ot)
		return err
	})
	return nil
}

func (r *studyRunner) close() error { return nil }

// retain runs the last round again, untimed, and keeps every cell's
// program and report: the same 108 cells whatever the seed.
func (r *studyRunner) retain() (any, error) {
	var kept []any
	for _, c := range r.cells[r.rounds-1] {
		state, err := r.cell(c, nil)
		if err != nil {
			return nil, err
		}
		kept = append(kept, state...)
	}
	return kept, nil
}

// cell runs one table cell — Load plus Analyze, or the
// intraprocedural baseline — and checks it against the table. It
// returns the program and its report.
func (r *studyRunner) cell(c studyCell, ot *opTrace) ([]any, error) {
	got, state, err := studyAnalyze(c, ot)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", c.prog.Name, c.col.key, err)
	}
	if got != c.expect {
		return nil, fmt.Errorf("%s/%s: %d substituted, table says %d", c.prog.Name, c.col.key, got, c.expect)
	}
	return state, nil
}

// studyAnalyze returns the cell's substitution count, and, untraced,
// the program and report.
func studyAnalyze(c studyCell, ot *opTrace) (int, []any, error) {
	cfg := c.col.cfg
	cfg.Workers = 1
	if ot == nil {
		p, err := ipcp.Load(c.prog.Source)
		if err != nil {
			return 0, nil, err
		}
		if c.col.intraOnly {
			rep := p.AnalyzeIntraprocedural()
			return rep.TotalSubstituted, []any{p, rep}, nil
		}
		rep := p.Analyze(cfg)
		return rep.TotalSubstituted, []any{p, rep}, nil
	}
	sp, err := tracedLoad(ot, c.prog.Source)
	if err != nil {
		return 0, nil, err
	}
	if c.col.intraOnly {
		var irp *ir.Program
		var res *core.IntraResult
		ot.do("irbuild", func() { irp = irbuild.Build(sp) })
		ot.do("core", func() { res = core.AnalyzeIntraproceduralIR(irp) })
		return res.TotalSubstituted, nil, nil
	}
	return tracedAnalyze(ot, sp, coreConfig(cfg)).TotalSubstituted, nil, nil
}

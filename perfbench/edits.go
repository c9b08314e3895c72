package main

import (
	"fmt"
	"math/rand"

	"ipcp"
	"ipcp/internal/mf/ast"
	"ipcp/internal/mf/parser"
)

// intLits returns every integer literal in the executable statements
// of file, in source order.
func intLits(file *ast.File) []*ast.IntLit {
	var lits []*ast.IntLit
	for _, u := range file.Units {
		ast.RewriteExprs(u, func(e ast.Expr) ast.Expr {
			if lit, ok := e.(*ast.IntLit); ok {
				lits = append(lits, lit)
			}
			return e
		})
	}
	return lits
}

// editLog is a chain of sources stored as its first source plus one
// splice per later source, so a chain of thousands of edits costs the
// harness a few bytes per edit instead of a whole program each: the
// harness's own data then barely moves the heap the garbage collector
// paces itself by.
type editLog struct {
	base    string
	splices []splice
}

// splice turns one source into the next: it replaces n bytes at off
// with text.
type splice struct {
	off, n int
	text   string
}

// diffSplice is the smallest splice that turns a into b.
func diffSplice(a, b string) splice {
	p := 0
	for p < len(a) && p < len(b) && a[p] == b[p] {
		p++
	}
	q := 0
	for q < len(a)-p && q < len(b)-p && a[len(a)-1-q] == b[len(b)-1-q] {
		q++
	}
	return splice{off: p, n: len(a) - p - q, text: b[p : len(b)-q]}
}

// len is the number of sources in the chain, the first included.
func (l *editLog) len() int { return 1 + len(l.splices) }

// sources materializes every source of the chain.
func (l *editLog) sources() []string {
	c := l.cursor()
	out := make([]string, l.len())
	for v := range out {
		out[v] = c.at(v)
	}
	return out
}

func (l *editLog) cursor() *chainCursor { return &chainCursor{log: l, v: -1} }

// chainCursor materializes the sources of one chain, cheaply when they
// are visited in order. It is not safe for concurrent use.
type chainCursor struct {
	log *editLog
	cur []byte
	src string
	v   int
}

// at returns source v of the chain (0 is the first source).
func (c *chainCursor) at(v int) string {
	if v == c.v {
		return c.src
	}
	if v < c.v || c.v < 0 {
		c.cur, c.v = append(c.cur[:0], c.log.base...), 0
	}
	for ; c.v < v; c.v++ {
		s := c.log.splices[c.v]
		tail := len(c.cur) - s.off - s.n
		next := make([]byte, 0, s.off+len(s.text)+tail)
		next = append(append(append(next, c.cur[:s.off]...), s.text...), c.cur[s.off+s.n:]...)
		c.cur = next
	}
	c.src = string(c.cur)
	return c.src
}

// editChain returns base followed by n successive single-literal
// edits, each applied to the previous source: one integer literal of
// an executable statement, picked by r, raised by 1 to 5 — the
// smallest edit a user makes between two analyses. An edit the
// analyzer would refuse to load is re-drawn, so every source in the
// chain is a valid program.
func editChain(base string, n int, r *rand.Rand) (*editLog, error) {
	file, err := parser.Parse(base)
	if err != nil {
		return nil, err
	}
	lits := intLits(file)
	if len(lits) == 0 {
		return nil, fmt.Errorf("no integer literal to edit")
	}
	log := &editLog{base: base, splices: make([]splice, n)}
	prev := base
	for i := range log.splices {
		for attempt := 0; ; attempt++ {
			if attempt == 100 {
				return nil, fmt.Errorf("edit %d: no loadable single-literal edit found", i)
			}
			lit := lits[r.Intn(len(lits))]
			old := lit.Value
			lit.Value += int64(1 + r.Intn(5))
			src := ast.Format(file)
			if _, err := ipcp.Load(src); err == nil {
				log.splices[i] = diffSplice(prev, src)
				prev = src
				break
			}
			lit.Value = old
		}
	}
	return log, nil
}

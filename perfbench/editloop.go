package main

import (
	"errors"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"

	"ipcp"
	"ipcp/internal/core"
	"ipcp/internal/incr"
	"ipcp/internal/suite"
	"ipcp/internal/summary"
	"ipcp/internal/wal"
)

// edit-loop is the `ipcp -cache-dir` loop in process: each op is one
// CLI-equivalent invocation on a cache directory, analyzing the next
// source of a seeded chain of single-literal edits to doduc.

// editOpSeconds is what one op took on 2 CPUs when the benchmark was
// defined; the chain is as long as the run needs, and runs once.
const editOpSeconds = 0.0125

// editConfig is cmd/ipcp's default configuration.
var editConfig = ipcp.Config{Jump: ipcp.PassThrough, ReturnJumpFunctions: true, MOD: true, Workers: 1}

const editSnapshot = "snapshot.snap"

type editRunner struct {
	chain   *editLog // unedited doduc, then one source per op
	cur     *chainCursor
	want    []answer // want[v] is the answer for source v of the chain
	workDir string
	dir     string // the current cache directory
	last    []any  // the last invocation's program, report and snapshot
}

func prepareEditLoop(opts runOpts) (runner, error) {
	base := suite.Generate("doduc", suite.DefaultScale).Source
	n := rounds(opts.seconds, editOpSeconds)
	if opts.setupOnly {
		n = 0
	}
	chain, err := editChain(base, n, rand.New(rand.NewSource(opts.seed)))
	if err != nil {
		return nil, err
	}
	want, err := referenceAnswers([]*editLog{chain}, editConfig)
	if err != nil {
		return nil, err
	}
	return &editRunner{chain: chain, cur: chain.cursor(), want: want[0], workDir: opts.workDir}, nil
}

func (r *editRunner) ops() int { return len(r.chain.splices) }

// setup is the first invocation: a cold analysis of the unedited
// program into an empty directory, plus the first SaveChain. It is
// timed in fresh processes, as the first `ipcp -cache-dir` run is.
func (r *editRunner) setup() error {
	dir, err := os.MkdirTemp(r.workDir, "perfbench-edit-")
	if err != nil {
		return err
	}
	r.dir = dir
	return r.invoke(r.chain.base, r.want[0])
}

// phase runs the chain once. Each op first materializes its source
// from the previous one (one splice and one copy of the program).
func (r *editRunner) phase(tr *tracer, out []opResult) error {
	sequential(out, tr, func(i int, ot *opTrace) error {
		src := r.cur.at(i + 1)
		if ot == nil {
			return r.invoke(src, r.want[i+1])
		}
		return r.tracedInvoke(src, r.want[i+1], ot)
	})
	return nil
}

func (r *editRunner) close() error {
	if r.dir == "" {
		return nil
	}
	err := os.RemoveAll(r.dir)
	r.dir = ""
	return err
}

// retain returns what the last invocation still held when it returned:
// its program, report and snapshot. The store itself is closed.
func (r *editRunner) retain() (any, error) { return r.last, nil }

// invoke is one `ipcp -cache-dir` run through the public API.
func (r *editRunner) invoke(src string, want answer) error {
	cache, _, err := ipcp.NewDurableCache(ipcp.DurableCacheOptions{Dir: r.dir})
	if err != nil {
		return err
	}
	path := filepath.Join(r.dir, editSnapshot)
	var prev *ipcp.Snapshot
	if s, err := ipcp.LoadSnapshot(path, cache); err == nil {
		prev = s
	} else if !isNotExist(err) {
		cache.Close()
		return err
	}
	p, err := ipcp.Load(src)
	if err != nil {
		cache.Close()
		return err
	}
	rep, snap := p.AnalyzeIncremental(editConfig, prev, cache)
	if _, err := snap.SaveChain(path); err != nil {
		cache.Close()
		return err
	}
	if err := cache.Close(); err != nil {
		return err
	}
	r.last = []any{p, rep, snap}
	return checkAnswer(answerOfReport(rep), want)
}

// tracedInvoke is invoke through the layer packages, so the summary
// store can be wrapped and each step timed. The store stack is the one
// ipcp.NewDurableCache builds: memory in front of disk, journaled.
func (r *editRunner) tracedInvoke(src string, want answer, ot *opTrace) error {
	var store *summary.TieredStore
	var err error
	ot.do("wal.open", func() { store, err = openDurable(ot, r.dir) })
	if err != nil {
		return err
	}
	path := filepath.Join(r.dir, editSnapshot)
	var prev *summary.Snapshot
	ot.do("summary.snapshot_load", func() { prev, err = summary.LoadSnapshotFile(path) })
	if err != nil && !isNotExist(err) {
		store.Close()
		return err
	}
	sp, err := tracedLoad(ot, src)
	if err != nil {
		store.Close()
		return err
	}
	// The engine computes the fingerprints itself; this second
	// computation times them and is taken out of the tracing overhead.
	ot.extra("sema.fingerprint", func() { sp.Fingerprints() })
	ts := &timedStore{inner: store, ot: ot}
	cfg := coreConfig(editConfig)
	var res *core.Result
	var snap *summary.Snapshot
	var st incr.Stats
	ot.do("incr", func() { res, snap, st, err = incr.NewEngine(ts).Analyze(sp, cfg, prev) })
	if err != nil {
		store.Close()
		return err
	}
	ts.flush()
	countIncr(ot, st)
	var cs summary.ChainStats
	ot.do("summary.snapshot_save", func() { cs, err = summary.SaveSnapshotChain(path, snap, summary.DeltaPolicy{}) })
	if err != nil {
		store.Close()
		return err
	}
	ot.count("summary.chain_delta_bytes", float64(cs.DeltaBytes))
	ot.do("wal.close", func() { err = store.Close() })
	if err != nil {
		return err
	}
	return checkAnswer(answerOfResult(res), want)
}

// openDurable mirrors ipcp.NewDurableCache's store stack.
func openDurable(ot *opTrace, dir string) (*summary.TieredStore, error) {
	disk, err := summary.NewDiskStore(dir)
	if err != nil {
		return nil, err
	}
	j, err := wal.Open(dir, wal.Options{Sync: wal.SyncRotate})
	if err != nil {
		return nil, err
	}
	store := summary.NewDurableTieredStore(j, summary.NewMemStore(0), disk)
	rs, err := summary.RecoverJournal(j, store)
	if err != nil {
		j.Close()
		return nil, err
	}
	ot.count("wal.replayed", float64(rs.Replayed))
	return store, nil
}

func isNotExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }

package main

import (
	"sync/atomic"
	"time"

	"ipcp/internal/incr"
	"ipcp/internal/summary"
)

// timedStore wraps the summary.Store handed to incr.NewEngine, timing
// and counting every Get and Put. It changes nothing the engine sees:
// the wrapper-transparency test runs an edit chain with and without it
// and compares the results.
type timedStore struct {
	inner summary.Store
	ot    *opTrace

	gets, hits, puts, putBytes atomic.Int64
	getNs, putNs               atomic.Int64
}

func (s *timedStore) Get(k summary.Key) ([]byte, bool) {
	t0 := time.Now()
	v, ok := s.inner.Get(k)
	s.getNs.Add(int64(time.Since(t0)))
	s.gets.Add(1)
	if ok {
		s.hits.Add(1)
	}
	return v, ok
}

func (s *timedStore) Put(k summary.Key, v []byte) error {
	t0 := time.Now()
	err := s.inner.Put(k, v)
	s.putNs.Add(int64(time.Since(t0)))
	s.puts.Add(1)
	s.putBytes.Add(int64(len(v)))
	return err
}

func (s *timedStore) Stats() summary.StoreStats { return s.inner.Stats() }

// flush adds the accumulated figures to the op's counters.
func (s *timedStore) flush() {
	s.ot.count("summary.gets", float64(s.gets.Load()))
	s.ot.count("summary.get_hits", float64(s.hits.Load()))
	s.ot.count("summary.get_ms", float64(s.getNs.Load())/1e6)
	s.ot.count("summary.puts", float64(s.puts.Load()))
	s.ot.count("summary.put_bytes", float64(s.putBytes.Load()))
	s.ot.count("summary.put_ms", float64(s.putNs.Load())/1e6)
}

func countIncr(ot *opTrace, st incr.Stats) {
	ot.count("incr.reanalyzed", float64(st.Reanalyzed))
	ot.count("incr.hits", float64(st.Hits))
	ot.count("incr.misses", float64(st.Misses))
	ot.count("incr.stage1_hits", float64(st.SharedHits))
	ot.count("incr.stage1_misses", float64(st.SharedMisses))
	ot.count("incr.worklist_visited", float64(st.WorklistVisited))
	ot.count("incr.cone_procs", float64(st.ConeProcs))
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"ipcp"
	"ipcp/internal/fleet"
	"ipcp/internal/server"
	"ipcp/internal/suite"
)

// serve is the `ipcpd -workers 2` shape in process: a fleet edge in
// front of two server.Server shards on loopback, driven by a closed
// loop of clients (callers that each wait for their reply, as an IDE
// or a CI job does). Each client owns small suite.Random lineages and
// sends /v1/analyze requests for seeded single-literal edits of them, so the shards do warm incremental work and HTTP/JSON,
// admission, routing and the edge hop are a large share of each
// request.

const (
	serveShards          = 2
	serveLineagesPerClnt = 16
	serveProgramSize     = 8
	// serveUnits is the unit count of every lineage's program, so the
	// per-request work does not depend on which programs the seed drew.
	serveUnits = 7
	// serveRoundSeconds is what one round (one request per lineage per
	// client) took on 2 CPUs when the benchmark was defined.
	serveRoundSeconds = 0.02
)

var serveConfig = ipcp.Config{Jump: ipcp.PassThrough, ReturnJumpFunctions: true, MOD: true}

type serveLineage struct {
	name  string
	chain *editLog     // base program, then one edit per round
	cur   *chainCursor // used by the lineage's client only
	want  []answer
}

type serveRunner struct {
	clients [][]*serveLineage
	rounds  int

	fl       *fleet.Fleet
	edgeURL  string
	serveErr chan error
	mu       sync.Mutex
	shardURL []string
	http     []*http.Client

	before scrape // counters at the start of the traced phase
}

// serveClients is the closed loop's client count: one per CPU, at most
// two, so the numbers measure the program and not the scheduler.
func serveClients() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// balancedLineageNames picks lineage names, independent of the seed,
// so each shard owns the same number of lineages: the routing is then
// the same on every run and the shard load is even.
func balancedLineageNames(n int) []string {
	perShard := make([][]string, serveShards)
	for k := 0; len(perShard[0])+len(perShard[1]) < n; k++ {
		name := fmt.Sprintf("lineage-%d", k)
		s := fleet.RouteAnalyze(name, serveConfig, serveShards)
		if len(perShard[s]) < n/serveShards {
			perShard[s] = append(perShard[s], name)
		}
	}
	var out []string
	for i := 0; i < n/serveShards; i++ {
		for s := range perShard {
			out = append(out, perShard[s][i])
		}
	}
	return out
}

// servePrograms returns the lineages' base programs: the first n
// suite.Random programs with serveUnits units. They do not depend on
// the seed, which picks only the edits, so every seed asks the shards
// for the same kind of work — as edit-loop edits the same doduc.
func servePrograms(n int) []string {
	var out []string
	for k := int64(1); len(out) < n; k++ {
		src := suite.Random(k, serveProgramSize).Source
		if p, err := ipcp.Load(src); err == nil && len(p.Units()) == serveUnits {
			out = append(out, src)
		}
	}
	return out
}

func prepareServe(opts runOpts) (runner, error) {
	nc := serveClients()
	r := &serveRunner{rounds: rounds(opts.seconds, serveRoundSeconds)}
	names := balancedLineageNames(nc * serveLineagesPerClnt)
	bases := servePrograms(len(names))
	rng := rand.New(rand.NewSource(opts.seed))
	var lineages []*serveLineage
	var seeds []int64
	for c := 0; c < nc; c++ {
		var ls []*serveLineage
		for l := 0; l < serveLineagesPerClnt; l++ {
			lin := &serveLineage{name: names[len(lineages)]}
			ls = append(ls, lin)
			lineages = append(lineages, lin)
			seeds = append(seeds, rng.Int63())
		}
		r.clients = append(r.clients, ls)
	}
	// Each lineage's edit chain draws from its own seeded generator, so
	// the chains can be built in parallel and still follow the seed.
	logs := make([]*editLog, len(lineages))
	err := parallel(len(lineages), func(_, i int) error {
		var err error
		logs[i], err = editChain(bases[i], r.rounds, rand.New(rand.NewSource(seeds[i])))
		return err
	})
	if err != nil {
		return nil, err
	}
	want, err := referenceAnswers(logs, serveConfig)
	if err != nil {
		return nil, err
	}
	for i, lin := range lineages {
		lin.chain, lin.cur, lin.want = logs[i], logs[i].cursor(), want[i]
	}
	return r, nil
}

func (r *serveRunner) ops() int { return len(r.clients) * serveLineagesPerClnt * r.rounds }

// setup starts the fleet, waits until every shard is ready, and sends
// the first request of every lineage (a cold analysis each).
func (r *serveRunner) setup() error {
	fl, err := fleet.New(fleet.Config{Workers: serveShards, Start: r.startShard})
	if err != nil {
		return err
	}
	r.shardURL = make([]string, serveShards)
	if err := fl.Start(context.Background()); err != nil {
		fl.Shutdown(context.Background())
		return err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fl.Shutdown(context.Background())
		return err
	}
	r.fl, r.edgeURL, r.serveErr = fl, "http://"+l.Addr().String(), make(chan error, 1)
	go func() { r.serveErr <- fl.Serve(l) }()
	r.http = make([]*http.Client, len(r.clients))
	for c := range r.http {
		r.http[c] = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
	}
	for c, ls := range r.clients {
		for _, lin := range ls {
			if err := r.request(c, lin, 0, nil); err != nil {
				return fmt.Errorf("first request of %s: %w", lin.name, err)
			}
		}
	}
	return nil
}

// startShard runs one shard in process on a loopback port.
func (r *serveRunner) startShard(shard int) (*fleet.WorkerHandle, error) {
	s, err := server.New(server.Config{})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Shutdown(context.Background())
		return nil, err
	}
	hs := &http.Server{Handler: s.Handler()}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(l) }()
	r.mu.Lock()
	r.shardURL[shard] = "http://" + l.Addr().String()
	r.mu.Unlock()
	return &fleet.WorkerHandle{
		Addr: l.Addr().String(),
		Stop: func(ctx context.Context) error {
			err := hs.Shutdown(ctx)
			if serr := s.Shutdown(ctx); err == nil {
				err = serr
			}
			return err
		},
		Kill: func() { hs.Close() },
		Done: done,
	}, nil
}

func (r *serveRunner) phase(tr *tracer, out []opResult) error {
	if tr != nil {
		var err error
		if r.before, err = r.scrape(); err != nil {
			return err
		}
	}
	per := serveLineagesPerClnt * r.rounds
	var wg sync.WaitGroup
	for c := range r.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				id := c*per + j
				lin := r.clients[c][j%serveLineagesPerClnt]
				ot := tr.beginOp(id)
				t0 := time.Now()
				err := r.request(c, lin, 1+j/serveLineagesPerClnt, ot)
				out[id] = opResult{lat: time.Since(t0), err: err}
				ot.end()
			}
		}(c)
	}
	wg.Wait()
	return nil
}

// request sends one /v1/analyze for version v of a lineage through the
// edge and checks the answer. Materializing the version from the
// previous one (one splice and one copy of a small program) is part of
// the client's work. A non-200 status (429 and 504
// included), a transport error, an undecodable body and a wrong answer
// all fail the op.
func (r *serveRunner) request(c int, lin *serveLineage, v int, ot *opTrace) error {
	body, err := json.Marshal(server.AnalyzeRequest{Source: lin.cur.at(v), Program: lin.name, Config: server.ConfigOf(serveConfig)})
	if err != nil {
		return err
	}
	var resp server.AnalyzeResponse
	ot.do("client", func() {
		var hr *http.Response
		hr, err = r.http[c].Post(r.edgeURL+"/v1/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			return
		}
		defer hr.Body.Close()
		var data []byte
		data, err = io.ReadAll(hr.Body)
		if err != nil {
			return
		}
		ot.count("server.resp_bytes", float64(len(data)))
		if hr.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d: %s", hr.StatusCode, strings.TrimSpace(string(data)))
			return
		}
		err = json.Unmarshal(data, &resp)
	})
	if err != nil {
		return err
	}
	if resp.Report == nil {
		return fmt.Errorf("response carries no report")
	}
	if st := resp.Report.Incremental; st != nil {
		ot.count("incr.reanalyzed", float64(st.Reanalyzed))
		ot.count("incr.hits", float64(st.CacheHits))
		ot.count("incr.misses", float64(st.CacheMisses))
		ot.count("incr.stage1_hits", float64(st.Stage1Hits))
		ot.count("incr.stage1_misses", float64(st.Stage1Misses))
		ot.count("incr.worklist_visited", float64(st.WorklistVisited))
		ot.count("incr.cone_procs", float64(st.ConeProcedures))
	}
	return checkAnswer(answerOfReport(resp.Report), lin.want[v])
}

// scrape is the Prometheus counters the serve layer metrics read.
type scrape struct {
	serverSum, serverCount float64
	rejected, coalesced    float64
	evictions              float64
	fleetSum, fleetCount   float64
	reroutes               float64
	routed                 []float64
}

func (r *serveRunner) scrape() (scrape, error) {
	var s scrape
	for _, u := range r.shardURL {
		m, err := fetchMetrics(u)
		if err != nil {
			return s, err
		}
		s.serverSum += m[`ipcpd_request_duration_seconds_sum{endpoint="analyze"}`]
		s.serverCount += m[`ipcpd_request_duration_seconds_count{endpoint="analyze"}`]
		s.rejected += m["ipcpd_rejected_total"]
		s.coalesced += m["ipcpd_coalesced_total"]
		s.evictions += m["ipcpd_snapshot_evictions_total"]
	}
	m, err := fetchMetrics(r.edgeURL)
	if err != nil {
		return s, err
	}
	s.fleetSum = m[`ipcpd_fleet_request_duration_seconds_sum{endpoint="analyze"}`]
	s.fleetCount = m[`ipcpd_fleet_request_duration_seconds_count{endpoint="analyze"}`]
	s.reroutes = m["ipcpd_fleet_reroutes_total"]
	for i := 0; i < serveShards; i++ {
		s.routed = append(s.routed, m[fmt.Sprintf(`ipcpd_fleet_routed_total{shard="%d"}`, i)])
	}
	return s, nil
}

// fetchMetrics reads a /metrics exposition into series → value.
func fetchMetrics(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s/metrics: status %d", base, resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// finishTrace turns the counters the traced phase moved into layer
// figures, and replays every lineage's request sequence in process
// (Load plus AnalyzeIncremental, as a shard runs it) for the serving
// overhead.
func (r *serveRunner) finishTrace(tr *tracer) error {
	after, err := r.scrape()
	if err != nil {
		return err
	}
	b := r.before
	tr.add("server.req_seconds_sum", after.serverSum-b.serverSum)
	tr.add("server.req_count", after.serverCount-b.serverCount)
	tr.add("server.rejected", after.rejected-b.rejected)
	tr.add("server.coalesced", after.coalesced-b.coalesced)
	tr.add("server.snapshot_evictions", after.evictions-b.evictions)
	tr.add("fleet.req_seconds_sum", after.fleetSum-b.fleetSum)
	tr.add("fleet.req_count", after.fleetCount-b.fleetCount)
	tr.add("fleet.reroutes", after.reroutes-b.reroutes)
	lo, hi := 0.0, 0.0
	for i := range after.routed {
		d := after.routed[i] - b.routed[i]
		if i == 0 || d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	tr.add("fleet.routed_min", lo)
	tr.add("fleet.routed_max", hi)

	var inproc time.Duration
	for _, ls := range r.clients {
		for _, lin := range ls {
			cache := ipcp.NewMemoryCache()
			var prev *ipcp.Snapshot
			cur := lin.chain.cursor()
			for v := 0; v < lin.chain.len(); v++ {
				src := cur.at(v)
				t0 := time.Now()
				p, err := ipcp.Load(src)
				if err != nil {
					return err
				}
				var rep *ipcp.Report
				rep, prev = p.AnalyzeIncremental(serveConfig, prev, cache)
				if v > 0 {
					inproc += time.Since(t0)
				}
				if err := checkAnswer(answerOfReport(rep), lin.want[v]); err != nil {
					return fmt.Errorf("in-process replay of %s: %w", lin.name, err)
				}
			}
		}
	}
	tr.add("server.inproc_ms", float64(inproc)/1e6)
	return nil
}

// close shuts the fleet down front to back and waits for the edge's
// serve loop to return.
func (r *serveRunner) close() error {
	if r.fl == nil {
		return nil
	}
	for _, c := range r.http {
		c.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := r.fl.Shutdown(ctx)
	if serr := <-r.serveErr; err == nil && serr != nil && serr != http.ErrServerClosed {
		err = serr
	}
	r.fl = nil
	return err
}

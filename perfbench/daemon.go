package main

// The daemon workloads: jigsawd's server (internal/server) on a wall clock,
// served in-process on a loopback listener and driven over HTTP with at most
// two connections, fewer on a host with one CPU.
//
// daemon-saturate: one Jigsaw shard on radix 22 (2662 nodes); a closed loop
// of two clients, each posting 16-job batches of 1 ms jobs. The fabric runs
// at about a quarter of its nodes, so the ingest drain, snapshot publish and
// engine apply do the work, not the search.
//
// daemon-open-sharded: two Jigsaw shards on radix 16 (1024 nodes); an open
// loop of single-job submits at a fixed rate, about 10% reads and 0.5% wide
// jobs (larger than one shard, so they take the cross-shard coordinator).

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/topology"
)

// daemon is one running in-process jigsawd.
type daemon struct {
	srv    *server.Server
	direct http.Handler // untimed handler for the monitor and checks
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
	routes *routeTimer // nil when untraced
}

// startDaemon builds a Jigsaw daemon and serves it on a loopback port. With
// rec set, the allocator is wrapped and every route is timed.
func startDaemon(radix, shards, conns int, rec *allocRecorder) (*daemon, error) {
	tree, err := topology.New(radix)
	if err != nil {
		return nil, err
	}
	var a alloc.Allocator = core.NewAllocator(tree)
	if rec != nil {
		a = wrapAlloc(a, rec)
		rec.setLiveClones(true)
	}
	srv, err := server.New(server.Config{Alloc: a, Shards: shards})
	if rec != nil {
		rec.setLiveClones(false)
	}
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: srv, direct: srv.Handler(), served: make(chan error, 1), client: newClient(conns)}
	h := d.direct
	if rec != nil {
		d.routes = newRouteTimer(d.direct, rec.spans)
		h = d.routes
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d.base = "http://" + ln.Addr().String()
	d.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { d.served <- d.hs.Serve(ln) }()
	// Open every connection the driver will use, so set-up covers it.
	var wg sync.WaitGroup
	errs := make([]error, conns)
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := send(context.Background(), d.client, d.base, request{method: "GET", path: "/healthz"}, time.Now())
			if o.err == nil && o.status != http.StatusOK {
				o.err = fmt.Errorf("healthz: status %d", o.status)
			}
			errs[i] = o.err
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			d.stop()
			return nil, err
		}
	}
	return d, nil
}

// stop closes the HTTP server, then the daemon, and waits for both. It is
// called only once every request has been answered, so the server is
// closed outright: a graceful Shutdown waits up to 5 s for a connection
// the client dialled but never used.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	d.hs.Close()
	<-d.served
	d.srv.Close()
}

// get serves one GET in-process (no connection) and decodes the JSON body.
func (d *daemon) get(path string, v any) error {
	rr := httptest.NewRecorder()
	d.direct.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
	if rr.Code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, rr.Code)
	}
	if v == nil {
		return nil
	}
	return json.Unmarshal(rr.Body.Bytes(), v)
}

// scrape reads the unlabelled series of /metrics.
func (d *daemon) scrape() (map[string]float64, error) {
	rr := httptest.NewRecorder()
	d.direct.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", rr.Code)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(rr.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if f, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = f
		}
	}
	return out, sc.Err()
}

// clusterView is the part of GET /v1/cluster the checks read.
type clusterView struct {
	UsedNodes   int              `json:"used_nodes"`
	QueueDepth  int              `json:"queue_depth"`
	RunningJobs int              `json:"running_jobs"`
	Nodes       int              `json:"nodes"`
	Counts      map[string]int64 `json:"counts"`
}

// shardsView is the part of GET /v1/shards the checks and metrics read.
type shardsView struct {
	Shards []struct {
		QueueDepth  int              `json:"queue_depth"`
		IngestDepth int              `json:"ingest_depth"`
		Counts      map[string]int64 `json:"counts"`
	} `json:"shards"`
	MaxSingle int `json:"max_single_shard_size"`
	Cross     *struct {
		Waiting    int64 `json:"waiting"`
		Placed     int64 `json:"placed"`
		Attempts   int64 `json:"attempts"`
		Infeasible int64 `json:"infeasible"`
		Conflicts  int64 `json:"conflicts"`
		Parks      int64 `json:"parks"`
	} `json:"cross"`
}

// monitor samples the engine and ingest queue depths while load runs, so a
// run whose backlog grows without bound can be marked invalid.
type monitor struct {
	quit   chan struct{}
	done   chan struct{}
	queue  []float64
	ingest []float64
}

const monitorEvery = 100 * time.Millisecond

func startMonitor(d *daemon) *monitor {
	m := &monitor{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		t := time.NewTicker(monitorEvery)
		defer t.Stop()
		for {
			select {
			case <-m.quit:
				return
			case <-t.C:
			}
			var sv shardsView
			if d.get("/v1/shards", &sv) != nil {
				continue
			}
			var q, in int
			for _, s := range sv.Shards {
				q += s.QueueDepth
				in += s.IngestDepth
			}
			m.queue = append(m.queue, float64(q))
			m.ingest = append(m.ingest, float64(in))
		}
	}()
	return m
}

// stop ends sampling and marks the run invalid if either queue grew without
// bound: its last quarter averages above growthFloor and above twice its
// second quarter. A job mix that outruns the fabric would measure snapshot
// capture of an ever-growing backlog, not the daemon.
func (m *monitor) stop(rep *report) {
	close(m.quit)
	<-m.done
	for _, s := range []struct {
		name string
		v    []float64
	}{{"engine queue", m.queue}, {"ingest queue", m.ingest}} {
		n := len(s.v)
		if n < 8 {
			continue
		}
		q2, q4 := meanOf(s.v[n/4:n/2]), meanOf(s.v[3*n/4:])
		if q4 > growthFloor && q4 > 2*q2 {
			rep.errorf("invalid run: %s grew from %.0f to %.0f during the run", s.name, q2, q4)
		}
	}
	maxQ := 0.0
	for _, v := range m.queue {
		maxQ = max(maxQ, v)
	}
	rep.set("engine.queue_depth_max", "count", maxQ, int64(len(m.queue)))
}

const growthFloor = 256

func meanOf(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// drain waits until every accepted job has finished: nothing queued (the
// sharded view counts wide jobs waiting in the coordinator), nothing
// running, no node in use.
func (d *daemon) drain(timeout time.Duration) (clusterView, error) {
	deadline := time.Now().Add(timeout)
	for {
		var cv clusterView
		if err := d.get("/v1/cluster", &cv); err != nil {
			return cv, err
		}
		if cv.QueueDepth == 0 && cv.RunningJobs == 0 && cv.UsedNodes == 0 {
			return cv, nil
		}
		if time.Now().After(deadline) {
			return cv, fmt.Errorf("not drained after %v: queue %d, running %d, used nodes %d", timeout, cv.QueueDepth, cv.RunningJobs, cv.UsedNodes)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// jobView is the part of a job status the checks read.
type jobView struct {
	ID    int64  `json:"id"`
	State string `json:"state"`
	Error string `json:"error"`
}

// verifySample reads a seeded sample of accepted job IDs over HTTP and
// checks each resolves to a completed job. It returns the read latencies.
func (d *daemon) verifySample(ids []int64, n int, seed int64, rep *report) *samples {
	rng := rand.New(rand.NewSource(seed))
	var lat samples
	if len(ids) == 0 {
		rep.errorf("no job was accepted")
		return &lat
	}
	for i := 0; i < n; i++ {
		id := ids[rng.Intn(len(ids))]
		o := send(context.Background(), d.client, d.base, request{method: "GET", path: "/v1/jobs/" + strconv.FormatInt(id, 10)}, time.Now())
		lat.add(o.done.Sub(o.sent).Seconds() * 1e3)
		var jv jobView
		if o.err != nil || o.status != http.StatusOK || json.Unmarshal(o.body, &jv) != nil || jv.ID != id || jv.State != "completed" {
			rep.errorf("GET /v1/jobs/%d after drain: status %d state %q err %v", id, o.status, jv.State, o.err)
			return &lat
		}
	}
	return &lat
}

// setupDaemon times setupReps daemon start-ups (build, listen, open the
// driver's connections) and keeps the last daemon for the first round;
// setup_s is the median.
func setupDaemon(w daemonWorkload, rep *report) (*daemon, error) {
	times := make([]float64, 0, setupReps)
	var d *daemon
	for i := 0; i < setupReps; i++ {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		var err error
		if d, err = startDaemon(w.radix, w.shards, clients, nil); err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	rep.set("setup_s", "s", median(times), int64(len(times)))
	return d, nil
}

// clients is the number of connections and load goroutines: two, or the
// CPU count if lower.
var clients = min(2, runtime.NumCPU())

// openRoundLen is the length of one daemon-open-sharded round. A daemon run
// repeats rounds of fixed work, each on a fresh daemon, until --seconds have
// been spent in rounds, and reports the median round. While the daemon keeps
// every job it has seen, its throughput and memory depend on how much work
// it has done; fixed rounds keep the figures comparable across run lengths.
const openRoundLen = 5 * time.Second

// roundResult is one measured daemon round.
type roundResult struct {
	jobsPerSec float64
	p50        float64 // submit latency, ms
	ls         *loadStats
	reads      *samples           // the reads the workload times, ms
	metrics    map[string]float64 // /metrics when the load ended
	shards     shardsView         // /v1/shards when the load ended
	// routeSub and routeRead are the traced handler times, us.
	routeSub, routeRead samples
}

// daemonWorkload is one daemon workload: its fabric, one round of load
// against a running daemon, and the cost figure tracing overhead is
// measured on.
type daemonWorkload struct {
	radix, shards int
	round         func(o options, rep *report, d *daemon, round int) (roundResult, error)
	cost          func(roundResult) float64
}

func runSaturate(o options, rep *report) error {
	return runDaemon(o, rep, daemonWorkload{saturateRadix, 1, saturateRound,
		func(r roundResult) float64 { return 1 / r.jobsPerSec }})
}

func runOpenSharded(o options, rep *report) error {
	return runDaemon(o, rep, daemonWorkload{openRadix, openShards, openRound,
		func(r roundResult) float64 { return r.p50 }})
}

// runDaemon runs a daemon workload's untraced rounds and, with --trace 1,
// one traced round on the first round's inputs, reporting its per-layer
// metrics and the tracing overhead on the workload's cost figure.
func runDaemon(o options, rep *report, w daemonWorkload) error {
	total := time.Duration(o.seconds) * time.Second
	var jobs, p50s, costs []float64
	var sub, reads samples
	var accepted int64
	var spent time.Duration
	for r := 0; r == 0 || spent < total; r++ {
		var d *daemon
		var err error
		if r == 0 {
			d, err = setupDaemon(w, rep)
		} else {
			d, err = startDaemon(w.radix, w.shards, clients, nil)
		}
		if err != nil {
			return err
		}
		t0 := time.Now()
		res, err := w.round(o, rep, d, r)
		spent += time.Since(t0)
		d.stop()
		if err != nil {
			return err
		}
		runtime.GC()
		jobs = append(jobs, res.jobsPerSec)
		p50s = append(p50s, res.p50)
		costs = append(costs, w.cost(res))
		for _, v := range res.ls.submit.vals {
			sub.add(v)
		}
		for _, v := range res.reads.vals {
			reads.add(v)
		}
		accepted += int64(len(res.ls.accepted) + len(res.ls.wideIDs))
		rep.attempted += res.ls.requests
		rep.failed += res.ls.failed
	}
	rep.set("peak_rss_mb", "MB", peakRSSMB(), 1)
	rep.set("jobs_per_s", "jobs/s", median(jobs), accepted)
	rep.set("latency_p50_ms", "ms", median(p50s), sub.n)
	rep.notef("%d rounds: jobs/s %.6g, latency p50 %.6g ms", len(jobs), jobs, p50s)
	setDriverTails(rep, &sub, &reads)
	if !o.traced {
		return nil
	}
	rec := newAllocRecorder(newSpanLog())
	d, err := startDaemon(w.radix, w.shards, clients, rec)
	if err != nil {
		return err
	}
	tr, err := w.round(o, rep, d, 0)
	d.stop()
	if err != nil {
		return err
	}
	rep.attempted += tr.ls.requests
	rep.failed += tr.ls.failed
	rep.set("trace.overhead_frac", "ratio", w.cost(tr)/median(costs)-1, int64(len(costs)+1))
	rep.notef("traced round: jobs/s %.6g, latency p50 %.6g ms", tr.jobsPerSec, tr.p50)
	setDriverTails(rep, &tr.ls.submit, tr.reads)
	setDaemonMetrics(rep, tr)
	setShardMetrics(rep, tr.shards)
	setAllocMetrics(rep, rec)
	return saveSpans(o, rec.spans)
}

// loadStats is what the driver measured in one round.
type loadStats struct {
	mu        sync.Mutex
	requests  int64
	failed    int64
	accepted  []int64 // IDs of accepted narrow jobs
	wideIDs   []int64 // IDs of accepted wide jobs
	submit    samples // submit latency, ms (from due time on the open loop)
	read      samples // read latency, ms, from due time
	late      samples // send time minus due time, ms
	transport samples // response time minus send time, us
	window    time.Duration
	bad       []string
}

func (ls *loadStats) badf(format string, args ...any) {
	if len(ls.bad) < 5 {
		ls.bad = append(ls.bad, fmt.Sprintf(format, args...))
	}
}

// endLoad closes a round's load window: it stops the samplers and reads
// /metrics and /v1/shards.
func endLoad(d *daemon, rep *report, ls *loadStats, start time.Time, mon *monitor, gc *gcWatch) (roundResult, error) {
	ls.window = time.Since(start)
	mon.stop(rep)
	gc.stop(rep)
	res := roundResult{ls: ls}
	var err error
	if res.metrics, err = d.scrape(); err != nil {
		return res, err
	}
	err = d.get("/v1/shards", &res.shards)
	return res, err
}

// batchResponse is the body of POST /v1/jobs:batch.
type batchResponse struct {
	Results []jobView `json:"results"`
}

// daemon-saturate sizing: 16-job batches of 1 ms jobs of 1-32 nodes keep
// radix 22 at about a quarter of its nodes, so even a much faster daemon
// builds no engine backlog. A round submits saturateJobs jobs (about 1.5 s
// on a 2-vCPU Intel Xeon VM).
const (
	saturateRadix   = 22
	saturateBatch   = 16
	saturateRuntime = 0.001
	saturateMaxSize = 32
	saturateJobs    = 60000
)

// saturateRound runs the closed loop until saturateJobs jobs have been sent,
// drains and checks. Its timed reads are the verification reads after the
// drain.
func saturateRound(o options, rep *report, d *daemon, round int) (roundResult, error) {
	ls := &loadStats{}
	rngs := make([]*rand.Rand, clients)
	for w := range rngs {
		rngs[w] = rand.New(rand.NewSource(o.seed*1000 + int64(round*10+w)))
	}
	next := func(w int) request {
		var b strings.Builder
		b.WriteString(`{"jobs":[`)
		for i := 0; i < saturateBatch; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `{"size":%d,"runtime":%g}`, 1+rngs[w].Intn(saturateMaxSize), saturateRuntime)
		}
		b.WriteString(`]}`)
		return request{method: "POST", path: "/v1/jobs:batch", body: []byte(b.String()), kind: kindSubmit}
	}
	handle := func(w int, r request, out outcome) {
		var br batchResponse
		ok := !out.failed() && out.status == http.StatusAccepted && json.Unmarshal(out.body, &br) == nil
		ls.mu.Lock()
		defer ls.mu.Unlock()
		ls.requests++
		ls.transport.add(out.done.Sub(out.sent).Seconds() * 1e6)
		if !ok {
			ls.failed++
			ls.badf("batch: status %d err %v", out.status, out.err)
			return
		}
		ls.submit.add(out.done.Sub(out.due).Seconds() * 1e3)
		for _, res := range br.Results {
			if res.Error != "" {
				ls.badf("batch item: %s", res.Error)
				continue
			}
			ls.accepted = append(ls.accepted, res.ID)
		}
	}
	gc := startGCWatch()
	mon := startMonitor(d)
	start := time.Now()
	var sent atomic.Int64
	more := func() bool { return sent.Add(saturateBatch) <= saturateJobs }
	closedLoop(context.Background(), d.client, d.base, clients, more, next, handle)
	res, err := endLoad(d, rep, ls, start, mon, gc)
	if err != nil {
		return res, err
	}
	cv, err := d.drain(10 * time.Second)
	if err != nil {
		rep.errorf("%v", err)
	}
	accepted := int64(len(ls.accepted))
	if cv.Counts["submitted"] != accepted || cv.Counts["completed"] != accepted {
		rep.errorf("daemon counts submitted %d completed %d, driver accepted %d", cv.Counts["submitted"], cv.Counts["completed"], accepted)
	}
	res.reads = d.verifySample(ls.accepted, verifyReads, o.seed*1000+int64(round), rep)
	if d.routes != nil {
		res.routeSub, res.routeRead = d.routes.series(true), d.routes.series(false)
	}
	for _, b := range ls.bad {
		rep.errorf("%s", b)
	}
	res.jobsPerSec = float64(accepted) / ls.window.Seconds()
	res.p50 = ls.submit.quantile(0.50)
	return res, nil
}

// verifyReads is how many accepted IDs each daemon round reads back after
// draining.
const verifyReads = 2000

// Open-loop sizing for daemon-open-sharded: about half the two-connection
// capacity, and about 0.55 of the fabric's node-seconds (20-40 ms jobs of
// 1-32 nodes, plus the wide jobs).
const (
	openRadix     = 16
	openShards    = 2
	openRate      = 1000 // requests per second
	openReadFrac  = 0.10
	openWideFrac  = 0.005
	openMinRun    = 0.020
	openMaxRun    = 0.040
	openMaxNarrow = 32
)

// openRound runs the open loop for openRoundLen (or --seconds if shorter),
// drains and checks. Its timed reads are the reads mixed into the load.
func openRound(o options, rep *report, d *daemon, round int) (roundResult, error) {
	length := min(openRoundLen, time.Duration(o.seconds)*time.Second)
	var sv shardsView
	var cv clusterView
	if err := d.get("/v1/shards", &sv); err != nil {
		return roundResult{}, err
	}
	if err := d.get("/v1/cluster", &cv); err != nil {
		return roundResult{}, err
	}
	seed := o.seed*1000 + int64(round)
	plan := openPlan(seed, int(length.Seconds()*openRate), sv.MaxSingle, cv.Nodes)
	ls := &loadStats{}
	pick := rand.New(rand.NewSource(seed + 7))
	build := func(i int, r request) request {
		if r.path != "/v1/jobs/{id}" {
			return r
		}
		ls.mu.Lock()
		defer ls.mu.Unlock()
		if len(ls.accepted) == 0 {
			return request{method: "GET", path: "/v1/cluster", kind: kindRead}
		}
		id := ls.accepted[pick.Intn(len(ls.accepted))]
		return request{method: "GET", path: "/v1/jobs/" + strconv.FormatInt(id, 10), kind: kindRead}
	}
	handle := func(i int, r request, out outcome) {
		var jv jobView
		want := http.StatusOK
		if r.kind == kindSubmit {
			want = http.StatusAccepted
		}
		ok := !out.failed() && out.status == want
		if ok && r.kind == kindSubmit {
			ok = json.Unmarshal(out.body, &jv) == nil && jv.ID > 0
		}
		ls.mu.Lock()
		defer ls.mu.Unlock()
		ls.requests++
		ls.late.add(out.sent.Sub(out.due).Seconds() * 1e3)
		ls.transport.add(out.done.Sub(out.sent).Seconds() * 1e6)
		if !ok {
			ls.failed++
			ls.badf("%s %s: status %d err %v", r.method, r.path, out.status, out.err)
			return
		}
		lat := out.done.Sub(out.due).Seconds() * 1e3
		if r.kind == kindRead {
			ls.read.add(lat)
			return
		}
		ls.submit.add(lat)
		if r.wide {
			ls.wideIDs = append(ls.wideIDs, jv.ID)
		} else {
			ls.accepted = append(ls.accepted, jv.ID)
		}
	}
	gc := startGCWatch()
	mon := startMonitor(d)
	start := time.Now()
	openLoop(context.Background(), d.client, d.base, clients, start, time.Second/openRate, plan, build, handle)
	res, err := endLoad(d, rep, ls, start, mon, gc)
	if err != nil {
		return res, err
	}
	if c := res.shards.Cross; c != nil {
		rep.notef("round %d: wide jobs at end of load: %d accepted, %d placed, %d waiting, %d infeasible attempts",
			round, len(ls.wideIDs), c.Placed, c.Waiting, c.Infeasible)
	}
	if d.routes != nil {
		res.routeSub, res.routeRead = d.routes.series(true), d.routes.series(false)
	}
	t0 := time.Now()
	drained, err := d.drain(10 * time.Second)
	if err != nil {
		rep.errorf("%v", err)
	}
	rep.notef("round %d: drained in %.2f s", round, time.Since(t0).Seconds())
	var end shardsView
	if err := d.get("/v1/shards", &end); err != nil {
		return res, err
	}
	checkSharded(rep, ls, drained, end)
	d.verifySample(ls.accepted, verifyReads, seed, rep)
	for _, b := range ls.bad {
		rep.errorf("%s", b)
	}
	res.reads = &ls.read
	res.jobsPerSec = float64(len(ls.accepted)+len(ls.wideIDs)) / ls.window.Seconds()
	res.p50 = ls.submit.quantile(0.50)
	return res, nil
}

// openPlan draws the open loop's requests from the seed: single-job
// submits, reads (a job by ID, the queue, the cluster) and wide submits.
func openPlan(seed int64, n, maxCell, nodes int) []request {
	rng := rand.New(rand.NewSource(seed))
	plan := make([]request, n)
	for i := range plan {
		u := rng.Float64()
		run := openMinRun + rng.Float64()*(openMaxRun-openMinRun)
		switch {
		case u < openWideFrac:
			size := maxCell + 1 + rng.Intn(nodes-maxCell)
			plan[i] = request{method: "POST", path: "/v1/jobs", kind: kindSubmit, wide: true,
				body: []byte(fmt.Sprintf(`{"size":%d,"runtime":%g}`, size, run))}
		case u < openWideFrac+openReadFrac:
			paths := []string{"/v1/jobs/{id}", "/v1/queue", "/v1/cluster"}
			plan[i] = request{method: "GET", path: paths[rng.Intn(len(paths))], kind: kindRead}
		default:
			plan[i] = request{method: "POST", path: "/v1/jobs", kind: kindSubmit,
				body: []byte(fmt.Sprintf(`{"size":%d,"runtime":%g}`, 1+rng.Intn(openMaxNarrow), run))}
		}
	}
	return plan
}

// checkSharded compares the drained daemon's counters with what the driver
// had accepted. Each placed wide job is charged to both shards as a slice,
// so it adds one "submitted" per shard; wide jobs still waiting are counted
// separately.
func checkSharded(rep *report, ls *loadStats, cv clusterView, sv shardsView) {
	var submitted, completed int64
	for _, s := range sv.Shards {
		submitted += s.Counts["submitted"]
		completed += s.Counts["completed"]
	}
	if sv.Cross == nil {
		rep.errorf("sharded daemon reports no cross-shard coordinator")
		return
	}
	narrow := int64(len(ls.accepted))
	if want := narrow + int64(len(sv.Shards))*sv.Cross.Placed; submitted != want || completed != submitted {
		rep.errorf("shard counts submitted %d completed %d, want %d (%d narrow accepted, %d wide placed)",
			submitted, completed, want, narrow, sv.Cross.Placed)
	}
	if wide := int64(len(ls.wideIDs)); sv.Cross.Placed+sv.Cross.Waiting != wide {
		rep.errorf("coordinator placed %d + waiting %d, driver accepted %d wide", sv.Cross.Placed, sv.Cross.Waiting, wide)
	}
	if sv.Cross.Waiting > 0 {
		rep.notef("%d wide jobs still waiting in the coordinator after drain", sv.Cross.Waiting)
	}
	if cv.UsedNodes != 0 {
		rep.errorf("%d nodes still used after drain", cv.UsedNodes)
	}
}

// setDriverTails records the driver's submit p99 and read latencies.
func setDriverTails(rep *report, submit, read *samples) {
	rep.set("driver.latency_p99_ms", "ms", submit.quantile(0.99), submit.n)
	rep.set("driver.read_p50_ms", "ms", read.quantile(0.50), read.n)
	rep.set("driver.read_p99_ms", "ms", read.quantile(0.99), read.n)
}

// setDaemonMetrics records the engine, ingest, snapshot, server, runtime
// and driver metrics of a traced daemon run.
func setDaemonMetrics(rep *report, r roundResult) {
	m, ls, sub, rd := r.metrics, r.ls, r.routeSub, r.routeRead
	applyN := int64(m["jigsawd_schedule_latency_seconds_count"])
	waitN := int64(m["jigsawd_request_queue_wait_seconds_count"])
	rep.set("engine.apply_ms", "ms", m["jigsawd_schedule_latency_seconds_sum"]*1e3, applyN)
	rep.set("engine.apply_p99_us", "us", m["jigsawd_schedule_latency_seconds_p99"]*1e6, min(applyN, 4096))
	if h, ms := m["jigsawd_feasibility_cache_hits_total"], m["jigsawd_feasibility_cache_misses_total"]; h+ms > 0 {
		rep.set("engine.feas_hit_frac", "ratio", h/(h+ms), int64(h+ms))
	}
	if waitN > 0 {
		rep.set("ingest.wait_mean_us", "us", m["jigsawd_request_queue_wait_seconds_sum"]/float64(waitN)*1e6, waitN)
	}
	rep.set("ingest.wait_p99_us", "us", m["jigsawd_request_queue_wait_seconds_p99"]*1e6, min(waitN, 4096))
	pubs := m["jigsawd_snapshot_publishes_total"]
	if pubs > 0 {
		rep.set("ingest.ops_per_publish", "ratio", m["jigsawd_ingest_accepted_total"]/pubs, int64(pubs))
	}
	rep.set("ingest.rejected", "count", m["jigsawd_ingest_rejected_total"], 1)
	rep.set("snapshot.publishes", "count", pubs, 1)
	rep.set("snapshot.publishes_per_s", "1/s", pubs/ls.window.Seconds(), int64(pubs))
	rep.set("server.submit_p50_us", "us", sub.quantile(0.50), sub.n)
	rep.set("server.submit_p99_us", "us", sub.quantile(0.99), sub.n)
	rep.set("server.read_p99_us", "us", rd.quantile(0.99), rd.n)
	// Handler time minus ingest wait and engine apply. Each request's wait
	// is taken as the mean wait of one operation: exact for single-job
	// submits; for batches, whose jobs wait side by side, an estimate.
	var meanWait float64
	if waitN > 0 {
		meanWait = m["jigsawd_request_queue_wait_seconds_sum"] / float64(waitN)
	}
	self := (sub.sum+rd.sum)/1e3 - (m["jigsawd_schedule_latency_seconds_sum"]+meanWait*float64(sub.n))*1e3
	rep.set("server.self_ms", "ms", self, sub.n+rd.n)
	rep.set("driver.requests", "count", float64(ls.requests), ls.requests)
	rep.set("driver.late_p99_ms", "ms", ls.late.quantile(0.99), ls.late.n)
	rep.set("driver.transport_p50_us", "us", ls.transport.quantile(0.50), ls.transport.n)
}

// setShardMetrics records the coordinator and lane-balance metrics.
func setShardMetrics(rep *report, sv shardsView) {
	if c := sv.Cross; c != nil {
		rep.set("shard.cross_attempts", "count", float64(c.Attempts), 1)
		rep.set("shard.cross_placed", "count", float64(c.Placed), 1)
		if c.Attempts > 0 {
			rep.set("shard.cross_infeasible_frac", "ratio", float64(c.Infeasible)/float64(c.Attempts), c.Attempts)
		}
		rep.set("shard.parks", "count", float64(c.Parks), 1)
		rep.set("shard.conflicts", "count", float64(c.Conflicts), 1)
	}
	var lo, hi, sum float64
	for i, s := range sv.Shards {
		v := float64(s.Counts["submitted"])
		if i == 0 || v < lo {
			lo = v
		}
		hi = max(hi, v)
		sum += v
	}
	if sum > 0 {
		rep.set("shard.lane_skew", "ratio", (hi-lo)/(sum/float64(len(sv.Shards))), int64(len(sv.Shards)))
	}
}

// routeTimer wraps Server.Handler and times every request by route group:
// submits (POST /v1/jobs, POST /v1/jobs:batch) and reads (every GET).
type routeTimer struct {
	next   http.Handler
	spans  *spanLog
	mu     sync.Mutex
	submit samples // us
	read   samples // us
}

func newRouteTimer(next http.Handler, spans *spanLog) *routeTimer {
	return &routeTimer{next: next, spans: spans}
}

func (t *routeTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	t.next.ServeHTTP(w, r)
	d := time.Since(t0)
	name := "server.read"
	if r.Method == http.MethodPost {
		name = "server.submit"
	}
	t.spans.add(name, -1, t0, d)
	t.mu.Lock()
	if r.Method == http.MethodPost {
		t.submit.add(d.Seconds() * 1e6)
	} else {
		t.read.add(d.Seconds() * 1e6)
	}
	t.mu.Unlock()
}

// series returns a copy of the submit or read series.
func (t *routeTimer) series(submit bool) samples {
	t.mu.Lock()
	defer t.mu.Unlock()
	if submit {
		return samples{vals: append([]float64(nil), t.submit.vals...), n: t.submit.n, sum: t.submit.sum}
	}
	return samples{vals: append([]float64(nil), t.read.vals...), n: t.read.n, sum: t.read.sum}
}

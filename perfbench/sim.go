package main

// sim-table3: the batch simulator replays the paper's Table 3 cells (Jigsaw,
// LaaS and TA on Synth-16, Sep-Cab, Thunder and Synth-28) one cell at a time
// with allocation timing on, as cmd/experiments does when it prints Table 3.
// LC+S is left out: one LC+S cell alone takes 11-74 s at this scale.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/trace"
)

// simScale shrinks the paper's job counts (cmd/experiments -scale).
const simScale = 0.1

// simSchemes are Table 3's columns minus LC+S, in the paper's row order.
var simSchemes = []string{"TA", "LaaS", "Jigsaw"}

// scaleCount mirrors the trace package's job-count scaling.
func scaleCount(n int, scale float64) int {
	s := int(float64(n) * scale)
	if s < 200 {
		s = 200
	}
	if s > n {
		s = n
	}
	return s
}

// table3Traces generates Table 3's traces from the paper's configs for one
// pass of one run. Each pass of a run replays its own traces, so a run
// averages over several draws. Pass 0 of seed 1 reproduces trace.Synth16,
// trace.SepCab, trace.ThunderLike and trace.Synth28 exactly; every other
// (seed, pass) shifts every generator seed.
func table3Traces(scale float64, seed int64, pass int) []*trace.Trace {
	shift := (seed-1)*7919 + int64(pass)*104729
	return []*trace.Trace{
		trace.Synth(trace.SynthConfig{Name: "Synth-16", Jobs: scaleCount(10000, scale), MeanSize: 16, MaxSize: 138, SnapUnit: 8, MinRun: 20, MaxRun: 3000, SystemNodes: 1024, SimRadix: 16, Seed: 116 + shift}),
		trace.LLNL(trace.LLNLConfig{Name: "Sep-Cab", Jobs: scaleCount(87564, scale), SystemNodes: 1296, MaxSize: 256, MeanSize: 8, Pow2Boost: 0.35, MinRun: 1, MaxRun: 57629, RealArrivals: true, LoadFactor: 1.15, Seed: 1409 + shift}),
		trace.LLNL(trace.LLNLConfig{Name: "Thunder", Jobs: scaleCount(105764, scale), SystemNodes: 1024, MaxSize: 965, MeanSize: 10, Pow2Boost: 0.40, MinRun: 1, MaxRun: 172362, Seed: 2004 + shift}),
		trace.Synth(trace.SynthConfig{Name: "Synth-28", Jobs: scaleCount(10000, scale), MeanSize: 28, MaxSize: 241, SnapUnit: 14, MinRun: 20, MaxRun: 3000, SystemNodes: 5488, SimRadix: 28, Seed: 128 + shift}),
	}
}

// simInputs generates each pass's traces once, timing the generation as
// set-up work.
type simInputs struct {
	seed int64
	sets [][]*trace.Trace
	gen  []float64 // seconds per generation
}

func (in *simInputs) pass(k int) []*trace.Trace {
	for len(in.sets) <= k {
		t0 := time.Now()
		in.sets = append(in.sets, table3Traces(simScale, in.seed, len(in.sets)))
		in.gen = append(in.gen, time.Since(t0).Seconds())
	}
	return in.sets[k]
}

// cellResult is one replayed cell.
type cellResult struct {
	pass      int
	name      string
	jobs      int
	wall      time.Duration
	hash      string
	steady    float64
	allocSec  float64
	allocCall int
	feasHits  int64
	feasMiss  int64
}

// simRun accumulates the timings of every cell replayed in one mode.
type simRun struct {
	rec       *allocRecorder // nil when untraced
	spans     *spanLog
	steps     samples // engine Step latency, ms
	passes    []passStats
	stepNs    time.Duration
	selfNs    time.Duration
	jobs      int
	wall      time.Duration
	allocSec  float64
	allocCall int64
	feasHits  int64
	feasMiss  int64
	cells     []cellResult
}

// passStats is one pass over the 12 cells.
type passStats struct {
	jobs  int
	wall  time.Duration
	steps samples // engine Step latency, ms
}

// replayCell simulates one (trace, scheme) cell the way sched.Scheduler.Run
// does, driving the engine directly so each Step can be timed, then checks
// the ledger. Timing covers the replay only, not the checks.
func (sr *simRun) replayCell(pass int, tr *trace.Trace, scheme string, rep *report) (cellResult, *sched.Result, error) {
	name := tr.Name + "/" + scheme
	t0 := time.Now()
	tree, err := experiments.TreeFor(tr)
	if err != nil {
		return cellResult{}, nil, err
	}
	a, err := experiments.NewAllocator(scheme, tree)
	if err != nil {
		return cellResult{}, nil, err
	}
	if sr.rec != nil {
		a = wrapAlloc(a, sr.rec)
	}
	s := sched.New(a, scenario.None{})
	eng, err := s.Engine()
	if err != nil {
		return cellResult{}, nil, err
	}
	jobs := append([]trace.Job(nil), tr.Jobs...)
	sort.SliceStable(jobs, func(i, j int) bool {
		if jobs[i].Arrival != jobs[j].Arrival {
			return jobs[i].Arrival < jobs[j].Arrival
		}
		return jobs[i].ID < jobs[j].ID
	})
	for _, j := range jobs {
		if err := eng.Submit(j); err != nil {
			return cellResult{}, nil, fmt.Errorf("%s: submit: %w", name, err)
		}
	}
	for {
		ts := time.Now()
		var id int32 = -1
		if sr.rec != nil {
			id = sr.spans.add("engine.step", -1, ts, 0)
			sr.rec.beginParent(id)
		}
		_, ok := eng.Step()
		d := time.Since(ts)
		if sr.rec != nil {
			sr.selfNs += d - sr.rec.endParent()
			sr.spans.setDur(id, d)
		}
		if !ok {
			break
		}
		sr.steps.add(d.Seconds() * 1e3)
		if pass < len(sr.passes) {
			sr.passes[pass].steps.add(d.Seconds() * 1e3)
		}
		sr.stepNs += d
	}
	res, err := sched.ResultFrom(eng, tr.Name)
	wall := time.Since(t0)
	if err != nil {
		return cellResult{}, nil, fmt.Errorf("%s: %w", name, err)
	}
	acc := eng.Accounting()
	cr := cellResult{
		pass: pass, name: name, jobs: len(tr.Jobs), wall: wall,
		hash: ledgerHash(eng), steady: eng.SteadyUtilization(),
		allocSec: res.AllocSeconds, allocCall: res.AllocCalls,
		feasHits: int64(acc.FeasCacheHits), feasMiss: int64(acc.FeasCacheMisses),
	}
	checkCell(name, eng, jobs, res, rep)
	return cr, res, nil
}

// checkCell verifies that every job completed exactly once, started no
// earlier than it arrived, and that the engine drained.
func checkCell(name string, eng *engine.Engine, jobs []trace.Job, res *sched.Result, rep *report) {
	snap := eng.Snapshot()
	if snap.QueueDepth != 0 || snap.PendingEvents != 0 || snap.RunningJobs != 0 {
		rep.errorf("%s: engine not drained (queue %d, events %d, running %d)", name, snap.QueueDepth, snap.PendingEvents, snap.RunningJobs)
	}
	if len(res.Rejected) != 0 || len(res.Records) != len(jobs) {
		rep.errorf("%s: %d records and %d rejected for %d jobs", name, len(res.Records), len(res.Rejected), len(jobs))
	}
	seen := make(map[int64]bool, len(jobs))
	for _, r := range res.Records {
		if seen[r.Job.ID] {
			rep.errorf("%s: job %d completed twice", name, r.Job.ID)
			return
		}
		seen[r.Job.ID] = true
		if r.Start < r.Job.Arrival || r.End < r.Start {
			rep.errorf("%s: job %d arrival %g start %g end %g", name, r.Job.ID, r.Job.Arrival, r.Start, r.End)
			return
		}
	}
	if c := eng.Counts(); c.Completed != int64(len(jobs)) || c.Submitted != int64(len(jobs)) {
		rep.errorf("%s: counts submitted %d completed %d for %d jobs", name, c.Submitted, c.Completed, len(jobs))
	}
}

// pass replays all 12 cells of pass k once, in Table 3 order.
func (sr *simRun) pass(k int, traces []*trace.Trace, rep *report) error {
	for len(sr.passes) <= k {
		sr.passes = append(sr.passes, passStats{})
	}
	for _, tr := range traces {
		for _, scheme := range simSchemes {
			cr, _, err := sr.replayCell(k, tr, scheme, rep)
			if err != nil {
				return err
			}
			sr.cells = append(sr.cells, cr)
			sr.passes[k].jobs += cr.jobs
			sr.passes[k].wall += cr.wall
			sr.jobs += cr.jobs
			sr.wall += cr.wall
			sr.allocSec += cr.allocSec
			sr.allocCall += int64(cr.allocCall)
			sr.feasHits += cr.feasHits
			sr.feasMiss += cr.feasMiss
		}
	}
	return nil
}

// runPasses replays whole passes until at least d has been spent replaying.
func (sr *simRun) runPasses(in *simInputs, d time.Duration, rep *report) error {
	for k := 0; sr.wall < d || k == 0; k++ {
		if err := sr.pass(k, in.pass(k), rep); err != nil {
			return err
		}
	}
	return nil
}

// checkLedgers checks pass 0's ledgers against want where it is given (the
// recorded values of the default seed), and every ledger against ref (an
// untraced run of the same traces) where that is given.
func (sr *simRun) checkLedgers(rep *report, want map[string]goldenCell, ref *simRun) {
	type key struct {
		pass int
		name string
	}
	got := map[key]cellResult{}
	for _, c := range sr.cells {
		got[key{c.pass, c.name}] = c
	}
	for name, g := range want {
		c, ok := got[key{0, name}]
		if !ok {
			rep.errorf("%s: cell not replayed", name)
			continue
		}
		if c.hash != g.hash || c.steady != g.steady {
			rep.errorf("%s: ledger %s steady %.17g, recorded %s steady %.17g", name, c.hash, c.steady, g.hash, g.steady)
		}
	}
	if ref == nil {
		return
	}
	for _, c := range ref.cells {
		if t, ok := got[key{c.pass, c.name}]; ok && t.hash != c.hash {
			rep.errorf("pass %d %s: traced ledger %s differs from untraced %s", c.pass, c.name, t.hash, c.hash)
		}
	}
}

func runSim(o options, rep *report) error {
	in := &simInputs{seed: o.seed}
	in.pass(setupReps - 1)
	rep.set("setup_s", "s", median(in.gen), int64(len(in.gen)))
	var want map[string]goldenCell
	if o.seed == 1 {
		want = goldenTable3
	}
	measure := time.Duration(o.seconds) * time.Second
	base := &simRun{}
	if err := base.runPasses(in, measure, rep); err != nil {
		return err
	}
	base.checkLedgers(rep, want, nil)
	rep.attempted = int64(base.jobs)
	for _, c := range base.cells[:len(in.sets[0])*len(simSchemes)] {
		rep.notef("cell %-16s jobs %6d  %8.1f ms  steady util %.4f  ledger %s", c.name, c.jobs, c.wall.Seconds()*1e3, c.steady, c.hash[:16])
	}
	// Each pass is one draw of the inputs; the median pass is reported, so
	// a burst of host noise in one pass does not move the figure.
	var rates, p50s []float64
	for _, p := range base.passes {
		rates = append(rates, float64(p.jobs)/p.wall.Seconds())
		p50s = append(p50s, p.steps.quantile(0.50))
	}
	rep.notef("%d passes: jobs/s %.6g, Step p50 %.6g ms", len(rates), rates, p50s)
	if !o.traced {
		rep.set("jobs_per_s", "jobs/s", median(rates), int64(base.jobs))
		rep.set("latency_p50_ms", "ms", median(p50s), base.steps.n)
		rep.set("driver.latency_p99_ms", "ms", base.steps.quantile(0.99), base.steps.n)
		rep.set("peak_rss_mb", "MB", peakRSSMB(), 1)
		return nil
	}
	// One traced pass on pass 0's traces; its overhead is measured against
	// the untraced replay of the same traces.
	tr := &simRun{spans: newSpanLog()}
	tr.rec = newAllocRecorder(tr.spans)
	gc := startGCWatch()
	if err := tr.pass(0, in.pass(0), rep); err != nil {
		return err
	}
	gc.stop(rep)
	tr.checkLedgers(rep, want, base)
	untraced, traced := base.passes[0], tr.passes[0]
	rep.set("trace.overhead_frac", "ratio", traced.wall.Seconds()/untraced.wall.Seconds()-1, 2)
	rep.notef("traced pass 0: %.1f jobs/s, untraced %.1f", float64(traced.jobs)/traced.wall.Seconds(), float64(untraced.jobs)/untraced.wall.Seconds())
	setAllocMetrics(rep, tr.rec)
	rep.set("driver.latency_p99_ms", "ms", tr.steps.quantile(0.99), tr.steps.n)
	rep.set("engine.step_calls", "count", float64(tr.steps.n), tr.steps.n)
	rep.set("engine.step_ms", "ms", tr.stepNs.Seconds()*1e3, tr.steps.n)
	rep.set("engine.self_ms", "ms", tr.selfNs.Seconds()*1e3, tr.steps.n)
	rep.set("engine.alloc_calls", "count", float64(tr.allocCall), tr.allocCall)
	if n := tr.feasHits + tr.feasMiss; n > 0 {
		rep.set("engine.feas_hit_frac", "ratio", float64(tr.feasHits)/float64(n), n)
	}
	rep.set("engine.alloc_us_per_job", "us", tr.allocSec/float64(tr.jobs)*1e6, int64(tr.jobs))
	return saveSpans(o, tr.spans)
}

// ledgerHash folds every observable output of a drained engine into one
// SHA-256: records, rejections, the utilization series and samples, the
// run bounds, the logical allocation count, the outcome counts and the
// drained snapshot, float64s by their IEEE-754 bits. Wall-clock allocation
// time is left out. It matches the engine package's golden-ledger hash.
func ledgerHash(e *engine.Engine) string {
	h := sha256.New()
	acc := e.Accounting()
	hashInt(h, int64(len(acc.Records)))
	for _, r := range acc.Records {
		hashJob(h, r.Job)
		hashFloat(h, r.Runtime)
		hashFloat(h, r.Start)
		hashFloat(h, r.End)
	}
	hashInt(h, int64(len(acc.Rejected)))
	for _, j := range acc.Rejected {
		hashJob(h, j)
	}
	hashInt(h, int64(len(acc.UtilSeries)))
	for _, p := range acc.UtilSeries {
		hashFloat(h, p.T)
		hashInt(h, int64(p.Used))
	}
	hashInt(h, int64(len(acc.InstSamples)))
	for _, v := range acc.InstSamples {
		hashFloat(h, v)
	}
	hashFloat(h, acc.FirstArrival)
	hashFloat(h, acc.LastEnd)
	hashFloat(h, acc.SteadyEnd)
	hashInt(h, int64(acc.AllocCalls))
	c := e.Counts()
	hashInt(h, c.Submitted)
	hashInt(h, c.Started)
	hashInt(h, c.Completed)
	hashInt(h, c.Rejected)
	hashInt(h, c.Cancelled)
	s := e.Snapshot()
	hashFloat(h, s.Now)
	hashInt(h, int64(s.UsedNodes))
	hashInt(h, int64(s.FreeNodes))
	hashInt(h, int64(s.QueueDepth))
	hashInt(h, int64(s.RunningJobs))
	return fmt.Sprintf("%x", h.Sum(nil))
}

func hashFloat(h hash.Hash, f float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
	h.Write(b[:])
}

func hashInt(h hash.Hash, v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h.Write(b[:])
}

func hashJob(h hash.Hash, j trace.Job) {
	hashInt(h, j.ID)
	hashInt(h, int64(j.Size))
	hashFloat(h, j.Arrival)
	hashFloat(h, j.Runtime)
}

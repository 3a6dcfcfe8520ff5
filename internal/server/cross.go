package server

// Cross-shard placement: jobs wider than the widest cell are owned by the
// coordinator, a single goroutine that composes them across lanes at sub-pod
// granularity (whole fully-free leaves; shard.ComposeSubPod).
//
// Placement protocol (the only code path that ever holds more than one
// lane), DESIGN.md §17:
//
//  1. Candidate search on published snapshots. The coordinator reads every
//     lane's RCU view — each carries per-pod free summaries
//     (topology.PodSummary) exact as of its StateVersion — and runs
//     shard.ComposeSubPod over the union. The search is pure read-side work:
//     an infeasible answer parks ZERO lanes, so a stuck wide job costs
//     single-shard traffic nothing while it waits.
//  2. Member-only parking. Only the lanes whose pods the composed partition
//     actually touches are parked, in ascending index order (lane.park pins
//     the lane's engine goroutine inside an admin closure). One coordinator,
//     one fixed acquisition order over a subset, and lanes that never wait
//     on each other: no cycle in the wait-for graph is possible, so no
//     deadlock (DESIGN.md §16-§17).
//  3. Align member clocks: advance each member engine to the furthest member
//     clock (and to the job's arrival in virtual mode), so all slices start
//     at one consistent instant. Non-member lanes' clocks are untouched.
//  4. Optimistic validation. The composition used snapshots, so each parked
//     member is revalidated against its live engine: if its StateVersion
//     still matches the snapshot the candidates came from, nothing moved; if
//     not, the exact chosen resources are re-checked (leaves fully free,
//     spine uplinks at full residual). A conflict releases every parked lane
//     and retries the whole attempt from a fresh snapshot read, up to
//     crossMaxValidateRetries per wake.
//  5. Charge each member engine its slice via StartPlaced with the runtime
//     computed once at submit, then release in descending order; each
//     release publishes a fresh snapshot, so readers see every slice as
//     soon as the gateway answers.
//
// Retries are event-driven: every lane publish that shows capacity coming
// back (completions, cancels, recoveries) rings the coordinator's wake
// channel *after* the publish, so the woken candidate search always sees the
// freed capacity. A one-second failsafe rescan backstops a lost wake; it is
// a belt-and-braces bound, not the pacing mechanism.
//
// Queued wide jobs are served strictly FIFO among themselves; they do not
// backfill around each other. Single-shard traffic keeps flowing between
// attempts — member lanes are only parked for the O(partition) validation
// and charge itself, and non-members are never parked at all.
//
// Failures intersecting one slice follow the owning shard's failure policy
// independently (the slice is requeued or killed as a shard-local job);
// surviving slices keep running, mirroring the paper's per-partition
// fault containment.

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/partition"
	"repro/internal/shard"
	"repro/internal/snapshot"
	"repro/internal/topology"
	"repro/internal/trace"
)

// crossFailsafeInterval backstops a lost wake while wide jobs wait. Normal
// retry pacing is the event-driven wake from lane publishes; this rescan only
// matters if every signal between two frees is somehow missed.
const crossFailsafeInterval = time.Second

// crossMaxValidateRetries bounds back-to-back reattempts when optimistic
// validation keeps losing races against single-shard traffic. After the
// budget the coordinator waits for the next wake instead of spinning.
const crossMaxValidateRetries = 4

type crossState int

const (
	crossWaiting crossState = iota
	crossRunning
	crossCancelled
)

type crossJob struct {
	j       trace.Job
	eff     float64
	state   crossState
	members []int // owning lane indices once running
}

// coordinator owns every cross-shard job. All fields behind mu; the run
// goroutine is the only caller of place.
type coordinator struct {
	s *Server

	mu     sync.Mutex
	fifo   []*crossJob
	jobs   map[int64]*crossJob
	closed bool

	// Counters for /v1/shards and /metrics. placed counts successful
	// placements; subpodPlaced the subset that used a partially-free pod or
	// sub-pod tree shape (LT < LeavesPerPod). attempts counts snapshot-guided
	// composition attempts, infeasible the ones that found no shape (and
	// parked nothing), conflicts the optimistic-validation retries.
	// shrunkPlaced counts placements of malleable jobs below their
	// requested size: when the full size composes no shape, the search
	// retries at descending whole-leaf sizes down to max(MinSize, one full
	// leaf — ComposeSubPod's granularity floor).
	placed       int64
	subpodPlaced int64
	shrunkPlaced int64
	attempts     int64
	infeasible   int64
	conflicts    int64

	wake chan struct{}
	quit chan struct{}
	done chan struct{}
}

func newCoordinator(s *Server) *coordinator {
	c := &coordinator{
		s:    s,
		jobs: map[int64]*crossJob{},
		wake: make(chan struct{}, 1),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	go c.run()
	return c
}

// signalWake nudges the placement goroutine; buffered-1 send coalesces
// bursts. Called from submit, cancel, and every lane's onFree hook.
func (c *coordinator) signalWake() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// close stops the placement goroutine. Waiting jobs stay queued (and are
// reported as such) — the daemon is shutting down.
func (c *coordinator) close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		<-c.done
		return
	}
	c.closed = true
	c.mu.Unlock()
	close(c.quit)
	<-c.done
}

// submit enqueues a wide job and returns its queued status. The effective
// runtime is computed once here — every slice runs for the same duration.
func (c *coordinator) submit(j trace.Job) (engine.JobStatus, error) {
	if !c.s.cfg.VirtualClock {
		j.Arrival = c.s.cfg.NowFunc()
	}
	eff := engine.EffectiveRuntime(c.s.cfg.Alloc, c.s.cfg.Scenario, j)
	cj := &crossJob{j: j, eff: eff}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return engine.JobStatus{}, ErrClosed
	}
	c.fifo = append(c.fifo, cj)
	c.jobs[j.ID] = cj
	c.mu.Unlock()
	c.signalWake()
	return engine.JobStatus{Job: j, State: engine.StateQueued, Runtime: eff}, nil
}

// waiting returns queued cross-shard jobs in FIFO order for the merged
// queue/cluster views.
func (c *coordinator) waiting() []engine.JobStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]engine.JobStatus, 0, len(c.fifo))
	for _, cj := range c.fifo {
		out = append(out, engine.JobStatus{Job: cj.j, State: engine.StateQueued, Runtime: cj.eff})
	}
	return out
}

// crossStats is the coordinator's counter snapshot for /v1/shards and
// /metrics.
type crossStats struct {
	Waiting      int
	Placed       int64
	SubpodPlaced int64
	ShrunkPlaced int64
	Attempts     int64
	Infeasible   int64
	Conflicts    int64
}

// stats reports the coordinator counters.
func (c *coordinator) stats() crossStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return crossStats{
		Waiting:      len(c.fifo),
		Placed:       c.placed,
		SubpodPlaced: c.subpodPlaced,
		ShrunkPlaced: c.shrunkPlaced,
		Attempts:     c.attempts,
		Infeasible:   c.infeasible,
		Conflicts:    c.conflicts,
	}
}

// status resolves a cross-owned job: queued and cancelled jobs answer from
// the registry; running jobs merge the member lanes' point lookups.
func (c *coordinator) status(id int64) (engine.JobStatus, error) {
	c.mu.Lock()
	cj, ok := c.jobs[id]
	if !ok {
		c.mu.Unlock()
		return engine.JobStatus{}, fmt.Errorf("unknown cross-shard job %d", id)
	}
	st := engine.JobStatus{Job: cj.j, State: engine.StateQueued, Runtime: cj.eff}
	state, members := cj.state, cj.members
	c.mu.Unlock()
	switch state {
	case crossWaiting:
		return st, nil
	case crossCancelled:
		st.State = engine.StateCancelled
		return st, nil
	}
	sts := make([]engine.JobStatus, 0, len(members))
	for _, li := range members {
		var got engine.JobStatus
		var ok bool
		if err := c.s.lanes[li].do(func(e *engine.Engine) { got, ok = e.Status(id) }); err != nil {
			return engine.JobStatus{}, err
		}
		if ok {
			sts = append(sts, got)
		}
	}
	if len(sts) == 0 {
		// The job reached crossRunning but no member lane knows it anymore:
		// every slice finished and was evicted. The job is over — report it
		// terminal, not the pre-placement "queued" this fallback used to
		// claim (which read as a job going backwards in time).
		st.State = engine.StateCompleted
		return st, nil
	}
	return snapshot.MergeStatuses(sts), nil
}

// cancel serves DELETE for a cross-owned job: a waiting job is removed from
// the FIFO; a running job is cancelled slice-by-slice on its member lanes
// (each lane releases its slice's resources; the merged status is returned).
func (c *coordinator) cancel(w http.ResponseWriter, id int64) {
	c.mu.Lock()
	cj, ok := c.jobs[id]
	if !ok {
		c.mu.Unlock()
		writeError(w, http.StatusNotFound, "unknown job %d", id)
		return
	}
	switch cj.state {
	case crossWaiting:
		cj.state = crossCancelled
		for i, q := range c.fifo {
			if q == cj {
				c.fifo = append(c.fifo[:i], c.fifo[i+1:]...)
				break
			}
		}
		st := engine.JobStatus{Job: cj.j, State: engine.StateCancelled, Runtime: cj.eff}
		c.mu.Unlock()
		// The head may have changed; let the placement goroutine re-examine.
		c.signalWake()
		writeJSON(w, http.StatusOK, toJobJSON(st))
		return
	case crossCancelled:
		c.mu.Unlock()
		writeError(w, http.StatusConflict, "job %d is already cancelled", id)
		return
	}
	members := cj.members
	c.mu.Unlock()
	cancelled := 0
	var lastErr error
	sts := make([]engine.JobStatus, 0, len(members))
	for _, li := range members {
		var st engine.JobStatus
		var ok bool
		var cerr error
		if err := c.s.lanes[li].do(func(e *engine.Engine) {
			_, cerr = e.Cancel(id)
			st, ok = e.Status(id)
		}); err != nil {
			writeError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		if cerr == nil {
			cancelled++
		} else {
			lastErr = cerr
		}
		if ok {
			sts = append(sts, st)
		}
	}
	if cancelled == 0 {
		writeError(w, http.StatusConflict, "%v", lastErr)
		return
	}
	writeJSON(w, http.StatusOK, toJobJSON(snapshot.MergeStatuses(sts)))
}

// run is the placement goroutine: woken by submits, cancels, and lane
// publishes that free capacity; the failsafe ticker only backstops a lost
// wake while jobs wait.
func (c *coordinator) run() {
	defer close(c.done)
	ticker := time.NewTicker(crossFailsafeInterval)
	defer ticker.Stop()
	for {
		c.mu.Lock()
		pending := len(c.fifo) > 0
		c.mu.Unlock()
		if pending {
			select {
			case <-c.quit:
				return
			case <-c.wake:
			case <-ticker.C:
			}
		} else {
			select {
			case <-c.quit:
				return
			case <-c.wake:
			}
		}
		c.placeAll()
	}
}

// placeAll places FIFO heads until one does not fit (strict FIFO: a stuck
// wide job blocks the wide jobs behind it, never the single-shard traffic).
func (c *coordinator) placeAll() {
	for {
		select {
		case <-c.quit:
			return
		default:
		}
		c.mu.Lock()
		if len(c.fifo) == 0 {
			c.mu.Unlock()
			return
		}
		head := c.fifo[0]
		c.mu.Unlock()
		if !c.place(head) {
			return
		}
		c.mu.Lock()
		if len(c.fifo) > 0 && c.fifo[0] == head {
			c.fifo = c.fifo[1:]
		}
		c.mu.Unlock()
	}
}

// place attempts one placement for the head, retrying immediately on
// optimistic-validation conflicts up to the budget. It returns true when the
// head is disposed of (started, or found cancelled), false when it must wait
// for the next wake.
func (c *coordinator) place(cj *crossJob) bool {
	// Cheap early check: a head cancelled before this attempt must not keep
	// the FIFO waiting on its (possibly infeasible) shape.
	c.mu.Lock()
	cancelled := cj.state != crossWaiting
	c.mu.Unlock()
	if cancelled {
		return true
	}
	for try := 0; ; try++ {
		done, conflict := c.tryPlace(cj)
		if done {
			return true
		}
		if !conflict {
			return false
		}
		c.mu.Lock()
		c.conflicts++
		c.mu.Unlock()
		if try >= crossMaxValidateRetries {
			return false
		}
	}
}

// podLane maps a pod index to its owning lane, -1 if outside every cell.
func (c *coordinator) podLane(pod int) int {
	return shard.CellOf(c.s.cells, pod)
}

// laneViews loads every lane's published snapshot, forcing one fresh publish
// on any lane whose view predates CapturePodSummaries (the Seq-0 view built
// at construction). A lane that is closing contributes nothing.
func (c *coordinator) laneViews() []*snapshot.View {
	views := make([]*snapshot.View, len(c.s.lanes))
	for i, l := range c.s.lanes {
		v := l.pub.Load()
		if v.Pods == nil {
			if err := l.do(func(*engine.Engine) {}); err != nil {
				continue
			}
			v = l.pub.Load()
			if v.Pods == nil {
				continue
			}
		}
		views[i] = v
	}
	return views
}

// revalidate checks, against lane li's live allocation state, that every
// resource the composed partition takes from li's pods is still exactly as
// the snapshot promised: chosen leaves fully free (nodes and leaf uplinks)
// and chosen spine uplinks at full residual. Strictly per-lane — it never
// looks at pods other lanes own.
func (c *coordinator) revalidate(st *topology.State, p *partition.Partition, li int) bool {
	lpp := c.s.tree.LeavesPerPod
	for _, tr := range p.Trees {
		if c.podLane(tr.Pod) != li {
			continue
		}
		for _, lf := range tr.Leaves {
			if !st.FullyFreeLeaf(tr.Pod*lpp + lf.Leaf) {
				return false
			}
		}
		spines := p.SpineSet
		if tr.Remainder {
			spines = p.SpineSetR
		}
		for i, set := range spines {
			for _, sp := range set {
				if st.SpineUpResidual(tr.Pod, i, sp) != st.Capacity {
					return false
				}
			}
		}
	}
	return true
}

// tryPlace runs one snapshot-guided placement attempt. Returns done=true
// when the head is disposed of (started, cancelled, or dropped on an
// internal error) and conflict=true when optimistic validation lost a race
// and the caller should retry from fresh snapshots. (false, false) means
// infeasible: wait for capacity — no lane was parked finding that out.
func (c *coordinator) tryPlace(cj *crossJob) (done, conflict bool) {
	c.mu.Lock()
	c.attempts++
	c.mu.Unlock()

	// 1. Candidate search on published snapshots — no lane touched, no lane
	// parked. Each lane's summaries are exact at its view's StateVersion.
	views := c.laneViews()
	var cands []topology.PodSummary
	freeLeaves := map[int]int{}
	for _, v := range views {
		if v != nil {
			cands = append(cands, v.Pods...)
			for _, ps := range v.Pods {
				freeLeaves[ps.Pod] = ps.FreeLeaves
			}
		}
	}
	size := cj.j.Size
	p, err := shard.ComposeSubPod(c.s.tree, cands, size)
	if err != nil && cj.j.MinSize() < cj.j.Size {
		// Malleable wide job: retry at descending whole-leaf sizes. Sub-pod
		// composition hands out fully-free leaves, so only leaf multiples
		// yield distinct shapes; the floor is the larger of the job's MinSize
		// and one full leaf (ComposeSubPod's granularity floor).
		nl := c.s.tree.NodesPerLeaf
		floor := cj.j.MinSize()
		if floor < nl {
			floor = nl
		}
		for s := (cj.j.Size - 1) / nl * nl; s >= floor && err != nil; s -= nl {
			if p, err = shard.ComposeSubPod(c.s.tree, cands, s); err == nil {
				size = s
			}
		}
	}
	if err != nil {
		c.mu.Lock()
		c.infeasible++
		c.mu.Unlock()
		return false, false
	}

	// Member lanes: only the cells the partition actually touches. A
	// placement counts as sub-pod when it could not have come from the old
	// whole-pod path: a narrower tree width, or any chosen pod that was only
	// partially free.
	memberSet := map[int]bool{}
	lpp := c.s.tree.LeavesPerPod
	subpod := p.LT < lpp
	for _, tr := range p.Trees {
		li := c.podLane(tr.Pod)
		if li < 0 || views[li] == nil {
			// Composition handed out a pod no live lane owns — a bug, not
			// fragmentation; refuse to spin on it.
			c.s.log.Error("cross-shard compose chose unowned pod", "job", cj.j.ID, "pod", tr.Pod)
			c.dropHead(cj)
			return true, false
		}
		memberSet[li] = true
		if freeLeaves[tr.Pod] < lpp {
			subpod = true
		}
	}
	members := make([]int, 0, len(memberSet))
	for li := range memberSet {
		members = append(members, li)
	}
	sort.Ints(members)

	// 2. Park member lanes in ascending index order.
	engs := make([]*engine.Engine, len(members))
	rels := make([]func(), len(members))
	for i, li := range members {
		eng, rel, err := c.s.lanes[li].park()
		if err != nil {
			for j := i - 1; j >= 0; j-- {
				rels[j]()
			}
			return false, false
		}
		engs[i], rels[i] = eng, rel
	}
	defer func() {
		for j := len(members) - 1; j >= 0; j-- {
			rels[j]()
		}
	}()

	c.mu.Lock()
	if cj.state != crossWaiting { // cancelled while we were composing
		c.mu.Unlock()
		return true, false
	}
	c.mu.Unlock()

	// 3. One consistent instant across the member shard clocks only.
	var now float64
	if c.s.cfg.VirtualClock {
		for _, e := range engs {
			if e.Now() > now {
				now = e.Now()
			}
		}
		if cj.j.Arrival > now {
			now = cj.j.Arrival
		}
	} else {
		now = c.s.cfg.NowFunc()
	}
	for _, e := range engs {
		e.AdvanceTo(now)
	}

	// 4. Optimistic validation against the live engines. Advancing the
	// clock may itself have started queued shard-local jobs, so this runs
	// after the align: version fast-path first, exact resource re-check when
	// the version moved. Any conflict releases everything and retries from
	// a fresh snapshot read.
	for i, li := range members {
		if engs[i].StateVersion() == views[li].StateVersion {
			continue
		}
		if !c.revalidate(engs[i].Config().Alloc.State(), p, li) {
			return false, true
		}
	}

	// 5. Charge every member its slice.
	demand := engs[0].Config().Alloc.State().Capacity
	pl := p.Placement(c.s.tree, topology.JobID(cj.j.ID), demand)
	slices, err := shard.SplitByCell(c.s.tree, c.s.cells, pl)
	if err != nil {
		c.s.log.Error("cross-shard split failed", "job", cj.j.ID, "err", err)
		c.dropHead(cj)
		return true, false
	}

	c.mu.Lock()
	if cj.state != crossWaiting { // cancelled while we were validating
		c.mu.Unlock()
		return true, false
	}
	cj.state = crossRunning
	cj.members = members
	c.mu.Unlock()

	// Work conservation for shrunk placements: the same total work spread
	// over fewer nodes runs proportionally longer.
	eff := cj.eff
	shrunk := size < cj.j.Size
	if shrunk {
		eff = cj.eff * float64(cj.j.Size) / float64(size)
	}
	for i, li := range members {
		slice := slices[li]
		if slice == nil {
			// Members were derived from the same partition the split walked;
			// a missing slice is unreachable.
			c.s.log.Error("cross-shard slice missing", "job", cj.j.ID, "lane", li)
			continue
		}
		sj := cj.j
		sj.Size = len(slice.Nodes)
		// Slices are rigid: malleability was resolved here, and a lane engine
		// resizing its slice independently would break the coordinated shape.
		sj.MinNodes, sj.MaxNodes = 0, 0
		if _, err := engs[i].StartPlaced(sj, eff, slice); err != nil {
			// Unreachable: gateway-unique IDs, placement verified, resources
			// revalidated under park.
			c.s.log.Error("cross-shard start failed", "job", cj.j.ID, "lane", li, "err", err)
		}
	}
	c.mu.Lock()
	c.placed++
	if subpod {
		c.subpodPlaced++
	}
	if shrunk {
		c.shrunkPlaced++
	}
	c.mu.Unlock()
	c.s.log.Info("cross-shard placement", "job", cj.j.ID, "size", size,
		"trees", len(p.Trees), "lt", p.LT, "lanes", len(members), "subpod", subpod, "shrunk", shrunk, "at", now)
	return true, false
}

// dropHead marks an unplaceable head cancelled so the FIFO keeps moving;
// only reachable on internal errors that would otherwise wedge the lane.
func (c *coordinator) dropHead(cj *crossJob) {
	c.mu.Lock()
	cj.state = crossCancelled
	c.mu.Unlock()
}

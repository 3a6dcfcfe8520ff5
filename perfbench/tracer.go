package main

// Tracing from outside the program: allocators are wrapped as they are
// handed to sched.New / server.New, so every Allocate, Release, Mirror and
// Clone the engine makes is timed without changing a line of the program.
// The wrapper must expose exactly the optional allocator extensions the
// wrapped scheme implements (alloc.TxnAllocator, alloc.PartitionFinder,
// alloc.FeasibilityClasser, alloc.MonotoneFeasibility): the engine picks
// its code paths by type assertion, so an extra or a missing method would
// silently move it onto another path (clone fallback, monotone cache).

import (
	"sync"
	"time"

	"repro/internal/alloc"
	"repro/internal/partition"
	"repro/internal/topology"
)

// layerOf maps a scheme to the module that implements it.
var layerOf = map[string]string{
	"Jigsaw":   "core",
	"LaaS":     "laas",
	"TA":       "ta",
	"Baseline": "baseline",
	"LC+S":     "lcs",
	"Jigsaw+S": "jigsaws",
}

// callKind names the wrapped allocator calls.
type callKind int

const (
	callAllocate callKind = iota
	callRelease
	callMirror
	callClone
	numCallKinds
)

// callStats accumulates one (layer, call, live/what-if) series.
type callStats struct {
	calls  int64
	placed int64
	total  time.Duration
	dur    samples
}

// allocRecorder collects the spans of every wrapped allocator of one run.
// It is shared by an allocator, its clones and (in the sharded daemon) the
// per-lane copies, so it takes a lock.
type allocRecorder struct {
	mu sync.Mutex
	// stats is indexed by layer, then [whatIf][kind].
	stats map[string]*[2][numCallKinds]callStats
	// childNs sums call time since beginParent, so a caller can subtract
	// nested allocator time from its own span (engine self time); parent is
	// the span the calls nest in, -1 for none.
	childNs int64
	spans   *spanLog
	parent  int32
	// liveClones makes Clone hand out live allocators (server.New clones
	// the seed allocator once per extra lane).
	liveClones bool
}

func (r *allocRecorder) setLiveClones(on bool) {
	r.mu.Lock()
	r.liveClones = on
	r.mu.Unlock()
}

func (r *allocRecorder) cloneIsLive() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.liveClones
}

func newAllocRecorder(spans *spanLog) *allocRecorder {
	return &allocRecorder{stats: map[string]*[2][numCallKinds]callStats{}, spans: spans, parent: -1}
}

var callNames = [numCallKinds]string{"allocate", "release", "mirror", "clone"}

func (r *allocRecorder) record(t *traced, whatIf bool, k callKind, t0 time.Time, d time.Duration, placed bool) {
	r.mu.Lock()
	st := r.stats[t.layer]
	if st == nil {
		st = new([2][numCallKinds]callStats)
		r.stats[t.layer] = st
	}
	w := 0
	if whatIf {
		w = 1
	}
	cs := &st[w][k]
	cs.calls++
	cs.total += d
	if placed {
		cs.placed++
	}
	cs.dur.add(d.Seconds() * 1e6)
	r.childNs += int64(d)
	if r.spans != nil {
		r.spans.add(t.spanNames[k], r.parent, t0, d)
	}
	r.mu.Unlock()
}

// beginParent marks span id as the parent of the allocator calls that follow
// and resets the nested-time counter; endParent returns the nested time.
func (r *allocRecorder) beginParent(id int32) {
	r.mu.Lock()
	r.parent, r.childNs = id, 0
	r.mu.Unlock()
}

func (r *allocRecorder) endParent() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.parent = -1
	return time.Duration(r.childNs)
}

// get returns the series for layer, or an empty one.
func (r *allocRecorder) get(layer string, whatIf bool, k callKind) *callStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.stats[layer]
	if st == nil {
		return &callStats{}
	}
	w := 0
	if whatIf {
		w = 1
	}
	return &st[w][k]
}

// layers lists the layers that recorded calls.
func (r *allocRecorder) layers() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.stats))
	for l := range r.stats {
		out = append(out, l)
	}
	return out
}

// traced is the base wrapper: the alloc.Allocator methods. Calls on a clone,
// or on the live allocator inside a transaction, are what-if calls.
type traced struct {
	inner alloc.Allocator
	rec   *allocRecorder
	layer string
	// spanNames are "<layer>.<call>", built once per wrapper.
	spanNames [numCallKinds]string
	clone     bool
	inTxn     bool
	txn       alloc.TxnAllocator
	finder    alloc.PartitionFinder
	class     alloc.FeasibilityClasser
}

func (t *traced) whatIf() bool { return t.clone || t.inTxn }

func (t *traced) Name() string            { return t.inner.Name() }
func (t *traced) FreeNodes() int          { return t.inner.FreeNodes() }
func (t *traced) State() *topology.State  { return t.inner.State() }
func (t *traced) Tree() *topology.FatTree { return t.inner.Tree() }

func (t *traced) Allocate(job topology.JobID, size int) (*topology.Placement, bool) {
	t0 := time.Now()
	p, ok := t.inner.Allocate(job, size)
	t.rec.record(t, t.whatIf(), callAllocate, t0, time.Since(t0), ok)
	return p, ok
}

func (t *traced) Release(p *topology.Placement) {
	t0 := time.Now()
	t.inner.Release(p)
	t.rec.record(t, t.whatIf(), callRelease, t0, time.Since(t0), false)
}

func (t *traced) Mirror(p *topology.Placement) {
	t0 := time.Now()
	t.inner.Mirror(p)
	t.rec.record(t, t.whatIf(), callMirror, t0, time.Since(t0), false)
}

// Clone stays wrapped, with the extension set of the scheme's own clone.
// Clones are what-if copies, except those the sharded daemon makes for its
// lanes while liveClones is set.
func (t *traced) Clone() alloc.Allocator {
	t0 := time.Now()
	c := t.inner.Clone()
	live := t.rec.cloneIsLive()
	t.rec.record(t, !live, callClone, t0, time.Since(t0), false)
	w := wrapAlloc(c, t.rec)
	w.(interface{ base() *traced }).base().clone = !live
	return w
}

func (t *traced) base() *traced { return t }

// The extension method sets, one type each, embedded as needed below.
type txnExt struct{ t *traced }

func (x txnExt) Begin()    { x.t.txn.Begin(); x.t.inTxn = true }
func (x txnExt) Rollback() { x.t.txn.Rollback(); x.t.inTxn = false }
func (x txnExt) Commit()   { x.t.txn.Commit(); x.t.inTxn = false }

type finderExt struct{ t *traced }

func (x finderExt) FindJobPartition(job topology.JobID, size int) (*partition.Partition, bool) {
	return x.t.finder.FindJobPartition(job, size)
}

type classExt struct{ t *traced }

func (x classExt) FeasibilityClass(job topology.JobID) int32 { return x.t.class.FeasibilityClass(job) }

type monoExt struct{}

func (monoExt) MonotoneFeasibility() {}

// wrapAlloc returns a traced allocator implementing exactly the optional
// extensions a implements. Every one of the 16 combinations has its own
// struct type, so the set is fixed at compile time per combination.
func wrapAlloc(a alloc.Allocator, rec *allocRecorder) alloc.Allocator {
	t := &traced{inner: a, rec: rec, layer: layerOf[a.Name()]}
	if t.layer == "" {
		t.layer = a.Name()
	}
	for k, c := range callNames {
		t.spanNames[k] = t.layer + "." + c
	}
	var mask int
	if x, ok := a.(alloc.TxnAllocator); ok {
		t.txn, mask = x, mask|1
	}
	if x, ok := a.(alloc.PartitionFinder); ok {
		t.finder, mask = x, mask|2
	}
	if x, ok := a.(alloc.FeasibilityClasser); ok {
		t.class, mask = x, mask|4
	}
	if _, ok := a.(alloc.MonotoneFeasibility); ok {
		mask |= 8
	}
	tx, fi, cl := txnExt{t}, finderExt{t}, classExt{t}
	switch mask {
	case 0:
		return t
	case 1:
		return &struct {
			*traced
			txnExt
		}{t, tx}
	case 2:
		return &struct {
			*traced
			finderExt
		}{t, fi}
	case 3:
		return &struct {
			*traced
			txnExt
			finderExt
		}{t, tx, fi}
	case 4:
		return &struct {
			*traced
			classExt
		}{t, cl}
	case 5:
		return &struct {
			*traced
			txnExt
			classExt
		}{t, tx, cl}
	case 6:
		return &struct {
			*traced
			finderExt
			classExt
		}{t, fi, cl}
	case 7:
		return &struct {
			*traced
			txnExt
			finderExt
			classExt
		}{t, tx, fi, cl}
	case 8:
		return &struct {
			*traced
			monoExt
		}{t, monoExt{}}
	case 9:
		return &struct {
			*traced
			txnExt
			monoExt
		}{t, tx, monoExt{}}
	case 10:
		return &struct {
			*traced
			finderExt
			monoExt
		}{t, fi, monoExt{}}
	case 11:
		return &struct {
			*traced
			txnExt
			finderExt
			monoExt
		}{t, tx, fi, monoExt{}}
	case 12:
		return &struct {
			*traced
			classExt
			monoExt
		}{t, cl, monoExt{}}
	case 13:
		return &struct {
			*traced
			txnExt
			classExt
			monoExt
		}{t, tx, cl, monoExt{}}
	case 14:
		return &struct {
			*traced
			finderExt
			classExt
			monoExt
		}{t, fi, cl, monoExt{}}
	default:
		return &struct {
			*traced
			txnExt
			finderExt
			classExt
			monoExt
		}{t, tx, fi, cl, monoExt{}}
	}
}

package main

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/experiments"
	"repro/internal/partition"
	"repro/internal/topology"
)

// extensions reports which optional allocator extensions a implements.
func extensions(a alloc.Allocator) [4]bool {
	_, txn := a.(alloc.TxnAllocator)
	_, pf := a.(alloc.PartitionFinder)
	_, fc := a.(alloc.FeasibilityClasser)
	_, mono := a.(alloc.MonotoneFeasibility)
	return [4]bool{txn, pf, fc, mono}
}

// The wrapper must expose exactly the wrapped scheme's extensions, and so
// must its clones: the engine chooses its paths by type assertion.
func TestWrapperKeepsExtensionSet(t *testing.T) {
	tree := topology.MustNew(8)
	schemes := []string{"Baseline", "Jigsaw", "Jigsaw+S", "LaaS", "TA", "LC+S"}
	for _, scheme := range schemes {
		raw, err := experiments.NewAllocator(scheme, tree)
		if err != nil {
			t.Fatal(err)
		}
		rec := newAllocRecorder(nil)
		w := wrapAlloc(raw, rec)
		if got, want := extensions(w), extensions(raw); got != want {
			t.Errorf("%s: wrapper extensions %v, scheme %v", scheme, got, want)
		}
		if got, want := extensions(w.Clone()), extensions(raw.Clone()); got != want {
			t.Errorf("%s: wrapped clone extensions %v, scheme clone %v", scheme, got, want)
		}
		if w.Name() != raw.Name() || w.Tree() != raw.Tree() || w.State() != raw.State() {
			t.Errorf("%s: wrapper does not pass through to the scheme", scheme)
		}
		p, ok := w.Allocate(1, 4)
		if !ok {
			t.Fatalf("%s: allocate 4 nodes on an empty fabric failed", scheme)
		}
		w.Release(p)
		layer := layerOf[scheme]
		if c := rec.get(layer, false, callAllocate); c.calls != 1 || c.placed != 1 {
			t.Errorf("%s: recorded %d live allocations (%d placed), want 1", scheme, c.calls, c.placed)
		}
		if c := rec.get(layer, false, callRelease); c.calls != 1 {
			t.Errorf("%s: recorded %d releases, want 1", scheme, c.calls)
		}
	}
}

// The 16 combinations must each keep their set; the six schemes cover only
// some, so check the table directly with stub allocators.
func TestWrapperCoversEveryCombination(t *testing.T) {
	tree := topology.MustNew(8)
	base, err := experiments.NewAllocator("Baseline", tree)
	if err != nil {
		t.Fatal(err)
	}
	for mask := 0; mask < 16; mask++ {
		a := stubWithExtensions(base, mask)
		if got, want := extensions(wrapAlloc(a, newAllocRecorder(nil))), extensions(a); got != want {
			t.Errorf("mask %04b: wrapper extensions %v, stub %v", mask, got, want)
		}
	}
}

// Calls on a clone, or inside a transaction on the live allocator, are
// what-if calls; the others are live.
func TestWrapperSplitsLiveAndWhatIf(t *testing.T) {
	raw, err := experiments.NewAllocator("Jigsaw", topology.MustNew(8))
	if err != nil {
		t.Fatal(err)
	}
	rec := newAllocRecorder(nil)
	w := wrapAlloc(raw, rec)
	txn := w.(alloc.TxnAllocator)
	txn.Begin()
	if _, ok := w.Allocate(1, 8); !ok {
		t.Fatal("allocate in transaction failed")
	}
	txn.Rollback()
	c := w.Clone()
	if _, ok := c.Allocate(2, 8); !ok {
		t.Fatal("allocate on clone failed")
	}
	if _, ok := w.Allocate(3, 8); !ok {
		t.Fatal("live allocate failed")
	}
	if live, whatIf := rec.get("core", false, callAllocate).calls, rec.get("core", true, callAllocate).calls; live != 1 || whatIf != 2 {
		t.Errorf("live %d what-if %d allocations, want 1 and 2", live, whatIf)
	}
	if n := rec.get("core", true, callClone).calls; n != 1 {
		t.Errorf("%d clones recorded, want 1", n)
	}
}

// stubWithExtensions returns an allocator delegating to a and implementing
// the extensions whose bits are set in mask (txn, finder, classer, mono).
func stubWithExtensions(a alloc.Allocator, mask int) alloc.Allocator {
	s := stubAlloc{a}
	switch mask {
	case 0:
		return s
	case 1:
		return struct {
			stubAlloc
			stubTxn
		}{s, stubTxn{}}
	case 2:
		return struct {
			stubAlloc
			stubFinder
		}{s, stubFinder{}}
	case 3:
		return struct {
			stubAlloc
			stubTxn
			stubFinder
		}{s, stubTxn{}, stubFinder{}}
	case 4:
		return struct {
			stubAlloc
			stubClass
		}{s, stubClass{}}
	case 5:
		return struct {
			stubAlloc
			stubTxn
			stubClass
		}{s, stubTxn{}, stubClass{}}
	case 6:
		return struct {
			stubAlloc
			stubFinder
			stubClass
		}{s, stubFinder{}, stubClass{}}
	case 7:
		return struct {
			stubAlloc
			stubTxn
			stubFinder
			stubClass
		}{s, stubTxn{}, stubFinder{}, stubClass{}}
	case 8:
		return struct {
			stubAlloc
			monoExt
		}{s, monoExt{}}
	case 9:
		return struct {
			stubAlloc
			stubTxn
			monoExt
		}{s, stubTxn{}, monoExt{}}
	case 10:
		return struct {
			stubAlloc
			stubFinder
			monoExt
		}{s, stubFinder{}, monoExt{}}
	case 11:
		return struct {
			stubAlloc
			stubTxn
			stubFinder
			monoExt
		}{s, stubTxn{}, stubFinder{}, monoExt{}}
	case 12:
		return struct {
			stubAlloc
			stubClass
			monoExt
		}{s, stubClass{}, monoExt{}}
	case 13:
		return struct {
			stubAlloc
			stubTxn
			stubClass
			monoExt
		}{s, stubTxn{}, stubClass{}, monoExt{}}
	case 14:
		return struct {
			stubAlloc
			stubFinder
			stubClass
			monoExt
		}{s, stubFinder{}, stubClass{}, monoExt{}}
	default:
		return struct {
			stubAlloc
			stubTxn
			stubFinder
			stubClass
			monoExt
		}{s, stubTxn{}, stubFinder{}, stubClass{}, monoExt{}}
	}
}

// stubAlloc hides every extension of the allocator it delegates to.
type stubAlloc struct{ a alloc.Allocator }

func (s stubAlloc) Name() string { return s.a.Name() }
func (s stubAlloc) Allocate(j topology.JobID, n int) (*topology.Placement, bool) {
	return s.a.Allocate(j, n)
}
func (s stubAlloc) Release(p *topology.Placement) { s.a.Release(p) }
func (s stubAlloc) Mirror(p *topology.Placement)  { s.a.Mirror(p) }
func (s stubAlloc) FreeNodes() int                { return s.a.FreeNodes() }
func (s stubAlloc) State() *topology.State        { return s.a.State() }
func (s stubAlloc) Tree() *topology.FatTree       { return s.a.Tree() }
func (s stubAlloc) Clone() alloc.Allocator        { return stubAlloc{s.a.Clone()} }

type stubTxn struct{}

func (stubTxn) Begin()    {}
func (stubTxn) Rollback() {}
func (stubTxn) Commit()   {}

type stubFinder struct{}

func (stubFinder) FindJobPartition(topology.JobID, int) (*partition.Partition, bool) {
	return nil, false
}

type stubClass struct{}

func (stubClass) FeasibilityClass(topology.JobID) int32 { return 0 }

package jigsaws

import (
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/topology"
	"repro/internal/trace"
)

func TestPlacementsAreJigsawLegal(t *testing.T) {
	tree := topology.MustNew(8)
	a := NewAllocator(tree)
	for size := 1; size <= tree.Nodes(); size += 7 {
		p, ok := a.FindPartition(topology.JobID(size), size)
		if !ok {
			t.Fatalf("size %d failed on empty machine", size)
		}
		if p.Size() != size {
			t.Fatalf("size %d: got %d nodes", size, p.Size())
		}
		if err := p.Verify(tree); err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
	}
}

func TestLinkSharingAdmitsDeeperPacking(t *testing.T) {
	tree := topology.MustNew(8)
	shared := NewAllocator(tree)
	strict := core.NewAllocator(tree)

	// Jobs of 3 nodes leave every leaf one node short; strict Jigsaw can
	// still fill the machine, and so must Jigsaw+S — but Jigsaw+S does it
	// while consuming only a fraction of each uplink.
	placedShared, placedStrict := 0, 0
	for j := 1; ; j++ {
		if _, ok := shared.Allocate(topology.JobID(j), 3); !ok {
			break
		}
		placedShared += 3
	}
	for j := 1; ; j++ {
		if _, ok := strict.Allocate(topology.JobID(j), 3); !ok {
			break
		}
		placedStrict += 3
	}
	if placedShared < placedStrict {
		t.Fatalf("Jigsaw+S packed %d nodes, strict Jigsaw %d: sharing must not lose placements", placedShared, placedStrict)
	}
	// At least one leaf uplink should now be shared by multiple jobs
	// (residual strictly between 0 and capacity after partial use).
	sharedLink := false
	for l := 0; l < tree.Leaves() && !sharedLink; l++ {
		for i := 0; i < tree.L2PerPod; i++ {
			// Demands are 5..20 of 40; two jobs on one link leave
			// residuals not representable by a single class.
			r := shared.st.LeafUpResidual(l, i)
			if r > 0 && r < 40-20 {
				sharedLink = true
				break
			}
		}
	}
	if !sharedLink {
		t.Log("no link ended up shared; acceptable but unexpected for this workload")
	}
}

func TestSchedulerIntegration(t *testing.T) {
	tree := topology.MustNew(8)
	a := NewAllocator(tree)
	s := sched.New(a, scenario.Fixed{Pct: 10})
	s.MeasureAllocTime = false
	synth := trace.Synth(trace.SynthConfig{
		Name: "mini", Jobs: 250, MeanSize: 10, MaxSize: 60,
		MinRun: 5, MaxRun: 50, SystemNodes: 128, Seed: 5,
	})
	res, err := s.Run(synth)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 250 {
		t.Fatalf("records = %d", len(res.Records))
	}
	if a.FreeNodes() != tree.Nodes() {
		t.Fatal("leak")
	}
	// Jigsaw+S is (nearly) isolating, so speed-ups apply.
	sped := 0
	for _, r := range res.Records {
		if r.Runtime != scenario.IsolatedRuntime(s.Scenario, r.Job) {
			t.Fatalf("job %d ran %g, want the isolated runtime", r.Job.ID, r.Runtime)
		}
		if r.Runtime < r.Job.Runtime {
			sped++
		}
	}
	if sped == 0 {
		t.Fatal("no job sped up under Jigsaw+S")
	}
}

func TestCloneIndependence(t *testing.T) {
	tree := topology.MustNew(6)
	a := NewAllocator(tree)
	c := a.Clone()
	c.Allocate(1, 9)
	if a.FreeNodes() != tree.Nodes() {
		t.Fatal("clone leaked")
	}
}

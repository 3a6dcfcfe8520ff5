package engine

// The read-only accessors observers rely on (the snapshot publisher, the
// daemon's /metrics and cross-shard coordinator), the wire names of the
// engine's enums, and the speed-up rule.

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/topology"
	"repro/internal/trace"
)

func TestObserverAccessors(t *testing.T) {
	tree := topology.MustNew(8)
	e, err := New(Config{Alloc: core.NewAllocator(tree)})
	if err != nil {
		t.Fatal(err)
	}
	v0 := e.StateVersion()
	if _, ok := e.NextEventTime(); ok || e.PendingEvents() != 0 || e.ActiveJobs() != 0 {
		t.Fatal("fresh engine reports pending work")
	}

	if err := e.Submit(job(1, 2*tree.NodesPerLeaf, 5, 10)); err != nil {
		t.Fatal(err)
	}
	if at, ok := e.NextEventTime(); !ok || at != 5 || e.PendingEvents() != 1 {
		t.Fatalf("after submit: next event %v %v, pending %d; want the arrival at 5", at, ok, e.PendingEvents())
	}
	e.Step()
	if e.ActiveJobs() != 1 {
		t.Fatalf("ActiveJobs = %d, want 1 running", e.ActiveJobs())
	}
	if at, ok := e.NextEventTime(); !ok || at != 15 {
		t.Fatalf("next event %v %v, want the completion at 15", at, ok)
	}
	if e.StateVersion() == v0 {
		t.Fatal("StateVersion did not move when the job was placed")
	}
	free := 0
	pods := e.PodSummaries(nil)
	for _, ps := range pods {
		free += ps.FreeLeaves
	}
	if len(pods) != tree.Pods || free != tree.Leaves()-2 {
		t.Fatalf("%d pod summaries with %d free leaves, want %d pods and %d free leaves",
			len(pods), free, tree.Pods, tree.Leaves()-2)
	}

	drain(e)
	if e.ActiveJobs() != 0 {
		t.Fatalf("ActiveJobs = %d after drain", e.ActiveJobs())
	}
	if recs := e.Accounting().Records; len(recs) != 1 || recs[0].Turnaround() != 10 {
		t.Fatalf("records %+v, want one with turnaround 10", recs)
	}

	if n, l, s := e.FailedResources(); n+l+s != 0 {
		t.Fatalf("healthy FailedResources = %d, %d, %d", n, l, s)
	}
	node, leaf := topology.NodeFailure(0), topology.LeafSwitchFailure(tree.Leaves()-1)
	for _, f := range []topology.Failure{node, leaf} {
		if _, err := e.Fail(f); err != nil {
			t.Fatal(err)
		}
	}
	n, l, s := e.FailedResources()
	snap := e.Snapshot()
	if s != 1 || n <= 1 || n != snap.FailedNodes || l != snap.FailedLinks || s != snap.FailedSwitches {
		t.Fatalf("FailedResources = %d, %d, %d; snapshot %d, %d, %d; want one switch and the nodes behind it",
			n, l, s, snap.FailedNodes, snap.FailedLinks, snap.FailedSwitches)
	}
	for _, f := range []topology.Failure{leaf, node} {
		if err := e.Recover(f); err != nil {
			t.Fatal(err)
		}
	}
	if n, l, s := e.FailedResources(); n+l+s != 0 {
		t.Fatalf("recovered FailedResources = %d, %d, %d", n, l, s)
	}
}

func TestWireNames(t *testing.T) {
	for v, want := range map[Verdict]string{
		VerdictNone: "", VerdictAccepted: "accepted", VerdictAtRisk: "accepted-at-risk",
		VerdictRejected: "rejected", Verdict(9): "verdict(9)",
	} {
		if got := v.String(); got != want {
			t.Errorf("Verdict(%d).String() = %q, want %q", int(v), got, want)
		}
	}
	if got := State(9).String(); got != "state(9)" {
		t.Errorf("State(9).String() = %q", got)
	}
	if got := FailurePolicy(9).String(); got != "policy(9)" {
		t.Errorf("FailurePolicy(9).String() = %q", got)
	}
	for _, p := range []FailurePolicy{FailRequeue, FailKill, FailShrink} {
		if got, err := ParseFailurePolicy(p.String()); err != nil || got != p {
			t.Errorf("ParseFailurePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
}

// TestSpeedupsFollowThePolicy pins the speed-up rule: every isolating
// policy runs a job at its scenario speed-up, the Baseline never does, and
// a nil scenario means none.
func TestSpeedupsFollowThePolicy(t *testing.T) {
	tree := topology.MustNew(8)
	j := trace.Job{ID: 1, Size: 64, Runtime: 100}
	sc := scenario.Fixed{Pct: 25}
	for _, tc := range []struct {
		name string
		e    *Engine
		want float64
	}{
		{"Jigsaw", newTestEngine(t, Config{Alloc: core.NewAllocator(tree), Scenario: sc}), 80},
		{"Baseline", newTestEngine(t, Config{Alloc: baseline.NewAllocator(tree), Scenario: sc}), 100},
		{"no-scenario", newTestEngine(t, Config{Alloc: core.NewAllocator(tree)}), 100},
	} {
		if err := tc.e.Submit(j); err != nil {
			t.Fatal(err)
		}
		st, _ := tc.e.Status(j.ID)
		if st.Runtime != tc.want || EffectiveRuntime(tc.e.cfg.Alloc, tc.e.cfg.Scenario, j) != tc.want {
			t.Errorf("%s: runtime %g, want %g", tc.name, st.Runtime, tc.want)
		}
	}
}

func newTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

package main

import (
	"fmt"
	"os"
	"reflect"
	"sort"
	"testing"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Seed 1, pass 0 must be the paper's own Table 3 traces, so the recorded
// ledgers are ledgers of the paper's inputs.
func TestTable3TracesArePaperTraces(t *testing.T) {
	got := table3Traces(simScale, 1, 0)
	want := []*trace.Trace{trace.Synth16(simScale), trace.SepCab(simScale), trace.ThunderLike(simScale), trace.Synth28(simScale)}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: generated trace differs from the trace package's", want[i].Name)
		}
	}
	other := table3Traces(simScale, 2, 0)
	if reflect.DeepEqual(other[0].Jobs, got[0].Jobs) {
		t.Error("seed 2 generated the same Synth-16 jobs as seed 1")
	}
}

// The benchmark steps the engine itself; its ledger must be the one
// sched.Scheduler.Run produces.
func TestReplayMatchesScheduler(t *testing.T) {
	tr := table3Traces(0.02, 3, 0)[1] // Sep-Cab, 1751 jobs
	for _, scheme := range simSchemes {
		rep := newReport("sim-table3", 3, false)
		sr := &simRun{}
		_, got, err := sr.replayCell(0, tr, scheme, rep)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.errs) > 0 {
			t.Fatalf("%s: %v", scheme, rep.errs)
		}
		tree, err := experiments.TreeFor(tr)
		if err != nil {
			t.Fatal(err)
		}
		a, err := experiments.NewAllocator(scheme, tree)
		if err != nil {
			t.Fatal(err)
		}
		s := sched.New(a, scenario.None{})
		s.MeasureAllocTime = false
		want, err := s.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		got.AllocSeconds, want.AllocSeconds = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: benchmark replay differs from sched.Run", scheme)
		}
	}
}

// TestTracedLedgersMatchUntraced replays all 12 sim-table3 cells of the
// default seed untraced and traced: every ledger must match the other and
// the recorded value. PERFBENCH_REGEN=1 prints the values to record.
func TestTracedLedgersMatchUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("replays 12 cells twice")
	}
	in := &simInputs{seed: 1}
	base := &simRun{}
	rep := newReport("sim-table3", 1, true)
	if err := base.pass(0, in.pass(0), rep); err != nil {
		t.Fatal(err)
	}
	traced := &simRun{spans: newSpanLog()}
	traced.rec = newAllocRecorder(traced.spans)
	if err := traced.pass(0, in.pass(0), rep); err != nil {
		t.Fatal(err)
	}
	if os.Getenv("PERFBENCH_REGEN") == "1" {
		names := make([]string, 0, len(base.cells))
		byName := map[string]cellResult{}
		for _, c := range base.cells {
			names = append(names, c.name)
			byName[c.name] = c
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("\t%q: {%q, %v},\n", n, byName[n].hash, byName[n].steady)
		}
	}
	traced.checkLedgers(rep, goldenTable3, base)
	if len(base.cells) != 12 || len(traced.cells) != 12 {
		t.Fatalf("replayed %d untraced and %d traced cells, want 12", len(base.cells), len(traced.cells))
	}
	for _, e := range rep.errs {
		t.Error(e)
	}
	if c := traced.rec.get("core", false, callAllocate); c.calls == 0 {
		t.Error("traced replay recorded no live Jigsaw allocations")
	}
}

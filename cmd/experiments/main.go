// Command experiments regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	experiments [-run all|table1|fig6|table2|fig7|fig8|table3] [-scale 0.1] [-workers N]
//	            [-fail-trace events.txt] [-fail-policy requeue]
//
// -scale shrinks trace job counts for quick runs; 1.0 reproduces the paper's
// job counts (and a correspondingly long runtime, hours when LC+S is
// involved at full scale, just as the paper reports).
//
// -workers bounds how many simulation cells run concurrently (default: one
// per CPU). Output is byte-identical for every worker count; only Table 3's
// wall-clock timings are affected — use -workers 1 for faithful timings.
//
// -fail-trace replays a fault-injection file (see internal/failtrace for the
// format) inside every simulation cell, measuring the schedulers on a
// degraded fabric; -fail-policy picks what happens to running jobs hit by a
// failure (requeue, kill, or shrink — shrink re-places jobs that declare
// min_nodes and falls back to requeue for rigid jobs, so on the paper's
// rigid traces it behaves exactly like requeue).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/failtrace"
)

func main() {
	run := flag.String("run", "all", "experiment to run: all, table1, fig6, table2, fig7, fig8, table3")
	scale := flag.Float64("scale", 0.1, "trace scale factor in (0, 1]; 1.0 = paper job counts")
	csvOut := flag.Bool("csv", false, "emit machine-readable CSV instead of text tables (fig6, table2, fig7, fig8, table3)")
	workers := flag.Int("workers", 0, "concurrent simulation cells; 0 = one per CPU (output is identical for any value)")
	failTrace := flag.String("fail-trace", "", "fault-injection trace replayed in every simulation cell (see internal/failtrace)")
	failPolicy := flag.String("fail-policy", "requeue", "what happens to running jobs hit by a failure: requeue|kill|shrink")
	flag.Parse()

	cfg := experiments.Config{Scale: *scale, Out: os.Stdout, Workers: *workers, MeasureTime: true}
	if *failTrace != "" {
		events, err := failtrace.ParseFile(*failTrace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		cfg.FailEvents = events
	}
	policy, err := engine.ParseFailurePolicy(*failPolicy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	cfg.FailPolicy = policy
	runners := map[string]func(experiments.Config) error{
		"all":    experiments.All,
		"table1": experiments.Table1,
		"fig6":   experiments.Figure6,
		"table2": experiments.Table2,
		"fig7":   experiments.Figure7,
		"fig8":   experiments.Figure8,
		"table3": experiments.Table3,
	}
	if *csvOut {
		runners["fig6"] = func(c experiments.Config) error { return experiments.Figure6CSV(c, os.Stdout) }
		runners["table2"] = func(c experiments.Config) error { return experiments.Table2CSV(c, os.Stdout) }
		runners["fig7"] = func(c experiments.Config) error { return experiments.Figure7CSV(c, os.Stdout) }
		runners["fig8"] = func(c experiments.Config) error { return experiments.Figure8CSV(c, os.Stdout) }
		runners["table3"] = func(c experiments.Config) error { return experiments.Table3CSV(c, os.Stdout) }
	}
	f, ok := runners[*run]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *run)
		os.Exit(2)
	}
	if err := f(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

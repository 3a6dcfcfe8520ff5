package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metricDef is one metric the benchmark publishes; the lists below must
// match BENCHMARK.json (TestMetricListsMatchBenchmarkJSON checks).
type metricDef struct{ name, unit string }

// endToEnd are printed by every untraced run. Each workload gives them its
// own meaning (README.md): jobs_per_s is simulated or accepted jobs per
// second; latency_p50_ms times the workload's scheduling operation (engine
// Step, batch submit, single-job submit from its due time). Tail and read
// latencies are per-layer driver metrics: on a 2-vCPU VM their run-to-run
// spread was wider than any bound the benchmark may set (README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"jobs_per_s", "jobs/s"},
	{"latency_p50_ms", "ms"},
}

// perLayer are printed by every traced run. A layer a workload bypasses
// reads 0 there.
var perLayer = func() []metricDef {
	var d []metricDef
	for _, m := range []string{"core", "laas", "ta"} {
		for _, side := range []string{"live", "whatif"} {
			p := m + "." + side + "_"
			d = append(d,
				metricDef{p + "allocate_calls", "count"},
				metricDef{p + "allocate_ms", "ms"},
				metricDef{p + "allocate_p50_us", "us"},
				metricDef{p + "allocate_p99_us", "us"},
				metricDef{p + "placed_frac", "ratio"})
		}
	}
	return append(d,
		metricDef{"topology.release_calls", "count"},
		metricDef{"topology.release_ms", "ms"},
		metricDef{"topology.mirror_calls", "count"},
		metricDef{"topology.mirror_ms", "ms"},
		metricDef{"topology.clone_calls", "count"},
		metricDef{"topology.clone_ms", "ms"},
		metricDef{"engine.step_calls", "count"},
		metricDef{"engine.step_ms", "ms"},
		metricDef{"engine.self_ms", "ms"},
		metricDef{"engine.alloc_calls", "count"},
		metricDef{"engine.feas_hit_frac", "ratio"},
		metricDef{"engine.alloc_us_per_job", "us"},
		metricDef{"engine.apply_ms", "ms"},
		metricDef{"engine.apply_p99_us", "us"},
		metricDef{"engine.queue_depth_max", "count"},
		metricDef{"ingest.wait_mean_us", "us"},
		metricDef{"ingest.wait_p99_us", "us"},
		metricDef{"ingest.ops_per_publish", "ratio"},
		metricDef{"ingest.rejected", "count"},
		metricDef{"snapshot.publishes", "count"},
		metricDef{"snapshot.publishes_per_s", "1/s"},
		metricDef{"server.submit_p50_us", "us"},
		metricDef{"server.submit_p99_us", "us"},
		metricDef{"server.read_p99_us", "us"},
		metricDef{"server.self_ms", "ms"},
		metricDef{"shard.cross_attempts", "count"},
		metricDef{"shard.cross_placed", "count"},
		metricDef{"shard.cross_infeasible_frac", "ratio"},
		metricDef{"shard.parks", "count"},
		metricDef{"shard.conflicts", "count"},
		metricDef{"shard.lane_skew", "ratio"},
		metricDef{"runtime.gc_cpu_frac", "ratio"},
		metricDef{"runtime.heap_peak_mb", "MB"},
		metricDef{"driver.requests", "count"},
		metricDef{"driver.latency_p99_ms", "ms"},
		metricDef{"driver.read_p50_ms", "ms"},
		metricDef{"driver.read_p99_ms", "ms"},
		metricDef{"driver.late_p99_ms", "ms"},
		metricDef{"driver.transport_p50_us", "us"},
		metricDef{"trace.overhead_frac", "ratio"},
	)
}()

// measured is one metric value with the number of samples behind it.
type measured struct {
	name, unit string
	value      float64
	samples    int64
}

// report is the outcome of one benchmark invocation.
type report struct {
	workload  string
	seed      int64
	traced    bool
	attempted int64
	failed    int64
	errs      []string
	notes     []string
	metrics   []measured
	byName    map[string]int
}

func newReport(workload string, seed int64, traced bool) *report {
	return &report{workload: workload, seed: seed, traced: traced, byName: map[string]int{}}
}

// set records (or overwrites) a metric.
func (r *report) set(name, unit string, v float64, n int64) {
	if i, ok := r.byName[name]; ok {
		r.metrics[i] = measured{name, unit, v, n}
		return
	}
	r.byName[name] = len(r.metrics)
	r.metrics = append(r.metrics, measured{name, unit, v, n})
}

// errorf records a failed correctness or validity check.
func (r *report) errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// notef records an observation printed with the run (not a failure).
func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// published returns the metrics the result line carries: every end-to-end
// metric untraced, every per-layer metric traced. Per-layer metrics of a
// layer the workload bypasses read 0.
func (r *report) published() (map[string]map[string]any, error) {
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	out := map[string]map[string]any{}
	for _, d := range defs {
		v := 0.0
		if i, ok := r.byName[d.name]; ok {
			m := r.metrics[i]
			if m.unit != d.unit {
				return nil, fmt.Errorf("metric %s measured in %s, declared in %s", d.name, m.unit, d.unit)
			}
			v = m.value
		} else if !r.traced {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		out[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	return out, nil
}

// hostInfo is the host block every result records.
func hostInfo() map[string]any {
	return map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// write prints the human-readable report, then the one-line JSON result the
// benchmark contract asks for as the last line of standard output.
func (r *report) write(w io.Writer) error {
	host := hostInfo()
	keys := make([]string, 0, len(host))
	for k := range host {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "workload %s  seed %d  traced %v\n", r.workload, r.seed, r.traced)
	for _, k := range keys {
		fmt.Fprintf(w, "host %-10s %v\n", k, host[k])
	}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "metric %-34s %14.6g %-7s n=%d\n", m.name, m.value, m.unit, m.samples)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "note   %s\n", n)
	}
	for _, e := range r.errs {
		fmt.Fprintf(w, "FAILED %s\n", e)
	}
	pub, err := r.published()
	if err != nil {
		return err
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(r.errs) == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   pub,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// Command perfbench is the repository's benchmark: it runs one named
// workload (sim-table3, daemon-saturate or daemon-open-sharded) for a fixed
// time, checks the outputs, and prints every metric by name with its unit
// and sample count, then one JSON result line. With --trace 1 it runs the
// workload untraced and then with every layer boundary timed from outside,
// and prints the per-layer metrics instead. See README.md.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// setupReps is how many times each run repeats its set-up; setup_s is the
// median.
const setupReps = 11

// outDir receives the span logs of traced runs, relative to the checkout.
const outDir = ".bench_build/perfbench-out"

type options struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
}

var workloads = map[string]func(options, *report) error{
	"sim-table3":          runSim,
	"daemon-saturate":     runSaturate,
	"daemon-open-sharded": runOpenSharded,
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "sim-table3, daemon-saturate, daemon-open-sharded, or all")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; 1 replays the paper's traces and is checked against recorded ledgers")
	flag.IntVar(&o.seconds, "seconds", 30, "seconds of measured work, in whole passes or rounds")
	flag.IntVar(&trace, "trace", 0, "1 adds a traced run and prints per-layer metrics")
	flag.Parse()
	o.traced = trace == 1
	run, ok := workloads[o.workload]
	if (!ok && o.workload != "all") || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", o.workload, o.seconds, trace)
		os.Exit(2)
	}
	if o.workload == "all" {
		os.Exit(runAll(o, trace))
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep := newReport(o.workload, o.seed, o.traced)
	if err := run(o, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	w := bufio.NewWriter(os.Stdout)
	err := rep.write(w)
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runAll runs every workload in turn, each in its own process so that peak
// memory stays per workload, and returns the exit code: non-zero if any run
// failed or reported a failed check.
func runAll(o options, trace int) int {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	code := 0
	for _, n := range names {
		var out bytes.Buffer
		cmd := exec.Command(os.Args[0], "--workload", n, "--seed", strconv.FormatInt(o.seed, 10),
			"--seconds", strconv.Itoa(o.seconds), "--trace", strconv.Itoa(trace))
		cmd.Stdout, cmd.Stderr = io.MultiWriter(os.Stdout, &out), os.Stderr
		if err := cmd.Run(); err != nil || !strings.Contains(out.String(), `"correct":true`) {
			fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", n, err)
			code = 1
		}
	}
	return code
}

// saveSpans writes a traced run's spans under outDir.
func saveSpans(o options, l *spanLog) error {
	return l.write(filepath.Join(outDir, fmt.Sprintf("%s-seed%d-spans.jsonl", o.workload, o.seed)))
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// gcWatch measures the runtime group over one measured window: the share of
// CPU time the collector took and the peak live heap, sampled.
type gcWatch struct {
	quit      chan struct{}
	done      chan struct{}
	mu        sync.Mutex
	heapPeak  uint64
	heapN     int64
	gc0, cpu0 float64
}

var rtSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/memory/classes/heap/objects:bytes"},
}

func readRuntime() (gc, cpu float64, heap uint64) {
	s := append([]metrics.Sample(nil), rtSamples...)
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Uint64()
}

func startGCWatch() *gcWatch {
	w := &gcWatch{quit: make(chan struct{}), done: make(chan struct{})}
	w.gc0, w.cpu0, _ = readRuntime()
	go func() {
		defer close(w.done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			w.sampleHeap()
			select {
			case <-w.quit:
				return
			case <-t.C:
			}
		}
	}()
	return w
}

func (w *gcWatch) sampleHeap() {
	_, _, heap := readRuntime()
	w.mu.Lock()
	if heap > w.heapPeak {
		w.heapPeak = heap
	}
	w.heapN++
	w.mu.Unlock()
}

// stop ends the watch and records runtime.gc_cpu_frac and
// runtime.heap_peak_mb. The CPU classes are estimates the runtime refreshes
// at each collection, so the window is closed with a forced GC.
func (w *gcWatch) stop(rep *report) {
	close(w.quit)
	<-w.done
	w.sampleHeap()
	runtime.GC()
	gc, cpu, _ := readRuntime()
	if d := cpu - w.cpu0; d > 0 {
		rep.set("runtime.gc_cpu_frac", "ratio", (gc-w.gc0)/d, 1)
	}
	rep.set("runtime.heap_peak_mb", "MB", float64(w.heapPeak)/(1<<20), w.heapN)
}

// setAllocMetrics turns the allocator spans into the core/laas/ta and
// topology metrics.
func setAllocMetrics(rep *report, rec *allocRecorder) {
	for _, m := range []string{"core", "laas", "ta"} {
		for _, whatIf := range []bool{false, true} {
			p := m + ".live_"
			if whatIf {
				p = m + ".whatif_"
			}
			cs := rec.get(m, whatIf, callAllocate)
			rep.set(p+"allocate_calls", "count", float64(cs.calls), cs.calls)
			rep.set(p+"allocate_ms", "ms", cs.total.Seconds()*1e3, cs.calls)
			rep.set(p+"allocate_p50_us", "us", cs.dur.quantile(0.50), cs.calls)
			rep.set(p+"allocate_p99_us", "us", cs.dur.quantile(0.99), cs.calls)
			if cs.calls > 0 {
				rep.set(p+"placed_frac", "ratio", float64(cs.placed)/float64(cs.calls), cs.calls)
			}
		}
	}
	for _, k := range []callKind{callRelease, callMirror, callClone} {
		var calls int64
		var total time.Duration
		for _, m := range rec.layers() {
			for _, whatIf := range []bool{false, true} {
				cs := rec.get(m, whatIf, k)
				calls += cs.calls
				total += cs.total
			}
		}
		rep.set("topology."+callNames[k]+"_calls", "count", float64(calls), calls)
		rep.set("topology."+callNames[k]+"_ms", "ms", total.Seconds()*1e3, calls)
	}
}

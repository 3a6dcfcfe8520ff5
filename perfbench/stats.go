package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"
)

// maxSamples bounds the values one series keeps; beyond it the series is a
// uniform reservoir of everything it was offered (count and sum stay exact).
const maxSamples = 1 << 20

// samples is one measured series.
type samples struct {
	vals []float64
	n    int64
	sum  float64
	rng  *rand.Rand
}

func (s *samples) add(v float64) {
	s.n++
	s.sum += v
	if len(s.vals) < maxSamples {
		s.vals = append(s.vals, v)
		return
	}
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(1))
	}
	if i := s.rng.Int63n(s.n); i < maxSamples {
		s.vals[i] = v
	}
}

// quantile returns the nearest-rank q-quantile of the kept values, 0 when
// there are none.
func (s *samples) quantile(q float64) float64 {
	return quantile(s.vals, q)
}

func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	c := append([]float64(nil), vals...)
	sort.Float64s(c)
	i := int(q*float64(len(c))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(c) {
		i = len(c) - 1
	}
	return c[i]
}

// median of a handful of values (setup repetitions, per-pass rates).
func median(vals []float64) float64 { return quantile(vals, 0.5) }

// span is one timed call at a layer boundary; Parent indexes the span that
// caused it, -1 for none. Times are nanoseconds since the log's origin.
type span struct {
	Name   string `json:"name"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

// maxSpans bounds the spans a run keeps in memory; later spans are counted
// as dropped (their timings still reach the per-layer series).
const maxSpans = 1 << 18

// spanLog keeps spans in memory; write saves them when the run ends. It is
// safe for concurrent use.
type spanLog struct {
	mu      sync.Mutex
	origin  time.Time
	spans   []span
	dropped int64
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// add records a span and returns its index, or -1 once the log is full.
func (l *spanLog) add(name string, parent int32, t0 time.Time, d time.Duration) int32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) >= maxSpans {
		l.dropped++
		return -1
	}
	l.spans = append(l.spans, span{Name: name, Parent: parent, Start: int64(t0.Sub(l.origin)), Dur: int64(d)})
	return int32(len(l.spans) - 1)
}

// setDur fills in the duration of a span opened with add; -1 is ignored.
func (l *spanLog) setDur(id int32, d time.Duration) {
	if id < 0 {
		return
	}
	l.mu.Lock()
	l.spans[id].Dur = int64(d)
	l.mu.Unlock()
}

// write saves the spans as JSON lines, the last line counting the dropped.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	fmt.Fprintf(w, "{\"dropped\":%d}\n", l.dropped)
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

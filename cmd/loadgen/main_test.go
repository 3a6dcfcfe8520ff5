package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"
)

// TestDoRequestRetryAfter pins the 429 header contract: an integral
// Retry-After comes back as a duration, and a missing or malformed one comes
// back as -1 so the caller falls back to its default.
func TestDoRequestRetryAfter(t *testing.T) {
	cases := []struct {
		name   string
		status int
		header string
		want   time.Duration
	}{
		{"hint-2s", http.StatusTooManyRequests, "2", 2 * time.Second},
		{"hint-0s", http.StatusTooManyRequests, "0", 0},
		{"no-hint", http.StatusTooManyRequests, "", -1},
		{"http-date-hint", http.StatusTooManyRequests, "Fri, 08 Aug 2026 00:00:00 GMT", -1},
		{"accepted", http.StatusAccepted, "2", -1},
	}
	cfg := config{batch: 1}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if c.header != "" {
					w.Header().Set("Retry-After", c.header)
				}
				w.WriteHeader(c.status)
			}))
			defer srv.Close()
			status, _, ra, err := doRequest(cfg, srv.Client(), srv.URL, "/v1/jobs", []byte(`{}`))
			if err != nil {
				t.Fatal(err)
			}
			if status != c.status {
				t.Fatalf("status = %d, want %d", status, c.status)
			}
			if ra != c.want {
				t.Fatalf("retryAfter = %v, want %v", ra, c.want)
			}
		})
	}
}

// TestBackoffFor pins the sleep bounds: at least the hint (1s when absent),
// at most the hint plus 100ms + hint/4 of jitter.
func TestBackoffFor(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		for _, c := range []struct {
			hint     time.Duration
			min, max time.Duration
		}{
			{-1, time.Second, time.Second + 100*time.Millisecond + time.Second/4},
			{0, 0, 100 * time.Millisecond},
			{2 * time.Second, 2 * time.Second, 2*time.Second + 100*time.Millisecond + 500*time.Millisecond},
		} {
			got := backoffFor(c.hint, rng)
			if got < c.min || got > c.max {
				t.Fatalf("backoffFor(%v) = %v, want in [%v, %v]", c.hint, got, c.min, c.max)
			}
		}
	}
}

// TestOpenLoopTimesFromDueTime runs the open loop against a server that
// holds every response until a release instant and then sheds it with
// Retry-After: 1. Every request due before the release must report a latency
// reaching at least to the release (timed from its due time, so the stall
// counts against each request due while it lasted), and the 429s must not
// pause the arrival schedule.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	start := time.Now()
	release := start.Add(150 * time.Millisecond)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(time.Until(release))
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer hs.Close()

	cfg := config{mode: "open", rate: 200, workers: 1, batch: 1,
		sizeMin: 1, sizeMax: 1, jobRuntime: 1, seed: 42}
	var buf bytes.Buffer
	col := &collector{start: start, enc: json.NewEncoder(&buf)}
	ctx, cancel := context.WithTimeout(context.Background(), 600*time.Millisecond)
	defer cancel()
	runOpen(ctx, cfg, hs.Client(), hs.URL, col)

	// 600ms at 200/s is ~120 arrivals; a schedule paused by the first
	// Retry-After would stop near the ~30 due before the release.
	reqs := col.requests.Load()
	if reqs < 60 {
		t.Fatalf("open loop sent %d requests; the schedule paused on 429", reqs)
	}
	if col.shed.Load() != reqs {
		t.Fatalf("shed %d of %d requests", col.shed.Load(), reqs)
	}
	if col.backoffs.Load() != 0 {
		t.Fatalf("open loop took %d back-off sleeps", col.backoffs.Load())
	}
	stalled := 0
	var ts []float64
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var r record
		if err := dec.Decode(&r); err != nil {
			t.Fatal(err)
		}
		ts = append(ts, r.T)
		releaseAt := release.Sub(start).Seconds()
		if r.T >= releaseAt {
			continue
		}
		stalled++
		if end := r.T + r.LatencyMS/1e3; end < releaseAt {
			t.Fatalf("request due at %.4fs reports latency %.3fms, ending before the release at %.4fs",
				r.T, r.LatencyMS, releaseAt)
		}
	}
	if stalled == 0 {
		t.Fatal("no request fell due during the stall")
	}
	// Latency clocks start on the schedule grid, not at the (jittered) send.
	sort.Float64s(ts)
	step := 1 / cfg.rate
	for _, v := range ts {
		if k := (v - ts[0]) / step; math.Abs(k-math.Round(k)) > 1e-3 {
			t.Fatalf("record at %.6fs is off the %gs schedule grid started at %.6fs", v, step, ts[0])
		}
	}
}

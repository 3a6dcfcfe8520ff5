package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// A server that stalls must show the stall in the latency of the requests
// that were due while it lasted, even though those requests are only sent
// (and answered quickly) after it ends: every connection is held by a
// stalled request. Timing from send would hide the stall.
func TestOpenLoopStallShowsInTail(t *testing.T) {
	const (
		interval = 2 * time.Millisecond
		n        = 300 // 600 ms of schedule
		stallAt  = 200 * time.Millisecond
		stall    = 150 * time.Millisecond
	)
	start := time.Now().Add(20 * time.Millisecond)
	stallEnd := start.Add(stallAt + stall)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if now := time.Now(); now.After(start.Add(stallAt)) && now.Before(stallEnd) {
			time.Sleep(time.Until(stallEnd))
		}
		w.WriteHeader(http.StatusAccepted)
	}))
	defer srv.Close()
	c := newClient(2)
	plan := make([]request, n)
	for i := range plan {
		plan[i] = request{method: "POST", path: "/", body: []byte("{}"), kind: kindSubmit}
	}
	var mu sync.Mutex
	var during, fromSend samples
	var all samples
	openLoop(context.Background(), c, srv.URL, 2, start, interval, plan,
		func(i int, r request) request { return r },
		func(i int, r request, o outcome) {
			if o.failed() {
				t.Errorf("request %d failed: %d %v", i, o.status, o.err)
			}
			mu.Lock()
			defer mu.Unlock()
			lat := o.done.Sub(o.due).Seconds() * 1e3
			all.add(lat)
			if o.due.After(start.Add(stallAt)) && o.due.Before(stallEnd) {
				during.add(lat)
				fromSend.add(o.done.Sub(o.sent).Seconds() * 1e3)
			}
		})
	if all.n != n {
		t.Fatalf("%d requests answered, want %d", all.n, n)
	}
	// A request due at the stall's start waits all of it, one due at its
	// end none: the median waits about half.
	if p50 := during.quantile(0.5); p50 < float64(stall/time.Millisecond)/3 {
		t.Errorf("p50 of requests due during the stall is %.1f ms, want at least %v/3", p50, stall)
	}
	if p50 := fromSend.quantile(0.5); p50 > float64(stall/time.Millisecond)/6 {
		t.Errorf("send-timed p50 during the stall is %.1f ms; the test's premise (fast answers after the stall) does not hold", p50)
	}
	if all.quantile(0.99) < float64(stall/time.Millisecond)/2 {
		t.Errorf("overall p99 %.1f ms hides the %v stall", all.quantile(0.99), stall)
	}
}

// Refusals and server errors count as failed; so do transport errors.
func TestOutcomeFailed(t *testing.T) {
	for _, tc := range []struct {
		o    outcome
		want bool
	}{
		{outcome{status: 202}, false},
		{outcome{status: 404}, false},
		{outcome{status: 429}, true},
		{outcome{status: 503}, true},
		{outcome{err: context.DeadlineExceeded}, true},
	} {
		if got := tc.o.failed(); got != tc.want {
			t.Errorf("status %d err %v: failed %v, want %v", tc.o.status, tc.o.err, got, tc.want)
		}
	}
}

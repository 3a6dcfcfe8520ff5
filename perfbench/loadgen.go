package main

// The load driver: a closed loop (each client sends its next request when
// the previous one returns) and an open loop (requests are due on a fixed
// schedule whatever the server does). The open loop times every request
// from its due time, so a stall also counts against the requests that were
// due while it lasted, and it reports how late the generator itself ran.
// It never pauses the schedule on Retry-After: a refused request counts as
// failed, and the next one is sent when it is due.

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// request is one planned HTTP request.
type request struct {
	method, path string
	body         []byte
	// kind groups requests for the latency series; wide marks a submit
	// larger than one shard.
	kind reqKind
	wide bool
}

type reqKind int

const (
	kindSubmit reqKind = iota
	kindRead
)

// outcome is one request's timing and verdict.
type outcome struct {
	due, sent, done time.Time
	status          int
	err             error
	body            []byte
}

// failed reports whether the request counts as failed: refused (429), a
// server error, or a transport error.
func (o *outcome) failed() bool {
	return o.err != nil || o.status == http.StatusTooManyRequests || o.status >= 500
}

// send performs one request and reads the whole response.
func send(ctx context.Context, c *http.Client, base string, r request, due time.Time) outcome {
	o := outcome{due: due, sent: time.Now()}
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequestWithContext(ctx, r.method, base+r.path, body)
	if err != nil {
		o.err, o.done = err, time.Now()
		return o
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		o.err, o.done = err, time.Now()
		return o
	}
	o.body, o.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	o.status, o.done = resp.StatusCode, time.Now()
	return o
}

// newClient returns a client that opens at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// closedLoop runs workers clients back to back while more allows another
// request. next builds a worker's next request; handle sees every outcome
// (from the worker's goroutine).
func closedLoop(ctx context.Context, c *http.Client, base string, workers int, more func() bool,
	next func(worker int) request, handle func(worker int, r request, o outcome)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil && more() {
				r := next(w)
				o := send(ctx, c, base, r, time.Now())
				handle(w, r, o)
			}
		}(w)
	}
	wg.Wait()
}

// openLoop sends plan[i] when it is due, at start + i*interval, from
// workers goroutines that take the next due request as they free up. It
// returns when every request has been answered. build may rewrite a
// request at send time (to read a job accepted earlier).
func openLoop(ctx context.Context, c *http.Client, base string, workers int, start time.Time, interval time.Duration,
	plan []request, build func(i int, r request) request, handle func(i int, r request, o outcome)) {
	var nextIdx atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(nextIdx.Add(1) - 1)
				if i >= len(plan) {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				sleepUntil(due)
				r := build(i, plan[i])
				handle(i, r, send(ctx, c, base, r, due))
			}
		}()
	}
	wg.Wait()
}

// sleepUntil blocks the calling thread in nanosleep until t. The runtime's
// own timers wake idle processes with millisecond granularity, which at a
// 1 ms schedule would make the generator, not the server, set the latency.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopChargesStallToLaterRequests runs the generator against a stub
// that stalls once. Requests due during the stall cannot be sent until it
// ends; their latency must include that wait, measured from when they were
// due, not from when they were finally sent.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const (
		n        = 100
		interval = 5 * time.Millisecond
		stallAt  = 10
		stall    = 200 * time.Millisecond
	)
	var count atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if count.Add(1) == stallAt+1 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()

	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(i) * interval
	}
	service := make([]time.Duration, n) // send → answer, what a closed loop would report
	lr := openLoop(context.Background(), dues, 1, func(ctx context.Context, i int) error {
		start := time.Now()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
		if err != nil {
			return err
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			return err
		}
		resp.Body.Close()
		service[i] = time.Since(start)
		return nil
	})
	for i, err := range lr.errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if lr.latency[stallAt] < stall {
		t.Fatalf("the stalled request's latency %v is below the stall %v", lr.latency[stallAt], stall)
	}
	// The next request was due one interval after the stalled one was sent,
	// so it waited nearly the whole stall before it could go out.
	next := stallAt + 1
	if want := stall - 2*interval; lr.latency[next] < want {
		t.Fatalf("request %d behind the stall: latency %v, want at least %v", next, lr.latency[next], want)
	}
	if service[next] > stall/2 {
		t.Fatalf("request %d's own service time %v should be short; the stall must show only in its latency", next, service[next])
	}
	// Every request due before the stall ended carries part of it.
	for i := next; i < n && dues[i] < dues[stallAt]+stall-2*interval; i++ {
		if want := dues[stallAt] + stall - dues[i] - 2*interval; lr.latency[i] < want {
			t.Fatalf("request %d: latency %v, want at least %v", i, lr.latency[i], want)
		}
	}
	// The generator itself kept to its schedule while the connection stalled.
	if p99 := percentile(msAll(lr.late), 0.99); p99 > float64(stall/time.Millisecond)/2 {
		t.Fatalf("generator ran %.1f ms late at p99; it must hand requests off on time", p99)
	}
}

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

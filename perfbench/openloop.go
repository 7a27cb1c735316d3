package main

import (
	"context"
	"errors"
	"sync"
	"time"
)

// The open-loop generator sends each request when it is due, whether or not
// earlier requests have been answered, over a fixed number of connections.
// Every latency is measured from the request's due time, not from when it
// was finally sent: a stall that holds back later sends is charged to
// them, so the generator cannot hide a stall from its own measurements
// (coordinated omission).

var errNotSent = errors.New("not sent: run ended first")

type loopResult struct {
	latency []time.Duration // due → answered, by request index
	late    []time.Duration // due → handed to a connection, by request index
	errs    []error
}

// openLoop runs send(ctx, i) for every i at start+dues[i], on conns
// connections, and returns once every sent request has been answered.
func openLoop(ctx context.Context, dues []time.Duration, conns int, send func(ctx context.Context, i int) error) loopResult {
	n := len(dues)
	res := loopResult{latency: make([]time.Duration, n), late: make([]time.Duration, n), errs: make([]error, n)}
	for i := range res.errs {
		res.errs[i] = errNotSent
	}
	// Buffered for every request, so handing one to a connection never
	// blocks the schedule: requests wait in the queue, on the clock.
	queue := make(chan int, n)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				err := send(ctx, i)
				res.latency[i] = time.Since(start) - dues[i]
				res.errs[i] = err
			}
		}()
	}
	for i, d := range dues {
		sleepUntil(ctx, start.Add(d))
		if ctx.Err() != nil {
			break
		}
		res.late[i] = time.Since(start) - d
		queue <- i
	}
	close(queue)
	wg.Wait()
	return res
}

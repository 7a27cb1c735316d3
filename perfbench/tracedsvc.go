package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"constable/internal/service"
	"constable/internal/sim"
	"constable/internal/worker"
)

// The service phases of the traced run: an in-process server
// (service.Open + service.NewHandler) and an in-process worker (worker.New
// + Handler), both behind the timing middleware.

// serveInProcess serves h on a loopback port until stop is called.
func serveInProcess(h http.Handler) (base string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	return "http://" + ln.Addr().String(), serve(ln, h), nil
}

// serve serves h on ln; the returned stop shuts the server down and waits
// for it.
func serve(ln net.Listener, h http.Handler) (stop func()) {
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns ErrServerClosed after Shutdown
	}()
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-done
	}
}

// snapshotMap renders a scheduler's metrics the way GET /metrics does, so
// the hygiene checks read in-process and out-of-process servers alike.
func snapshotMap(m service.MetricsSnapshot) map[string]float64 {
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		return nil
	}
	out, _ := parseMetrics(&buf)
	return out
}

// classWait returns a class's cumulative queue wait and dispatch count.
func classWait(m service.MetricsSnapshot, class string) (wait float64, dispatched uint64) {
	for _, c := range m.Classes {
		if c.Name == class {
			return c.QueueWaitSeconds, c.Dispatched
		}
	}
	return 0, 0
}

// clusterRun is what one in-process sweep measured.
type clusterRun struct {
	wall       time.Duration
	m          service.MetricsSnapshot
	storeBytes int64
}

// inProcessCluster runs cells as one sweep through an in-process
// dispatch-only server and one worker of capacity 2. With a nil tracer it
// is the untraced twin. Worker simulations are spans named sim.run.
func inProcessCluster(e *env, tr *tracer, cells []cell) (clusterRun, error) {
	var cr clusterRun
	dir, err := mkRunDir(e.root, "traced-cluster-")
	if err != nil {
		return cr, err
	}
	defer os.RemoveAll(dir)
	sched, err := service.Open(service.Config{Workers: -1, DataDir: dir})
	if err != nil {
		return cr, err
	}
	defer sched.Close()
	base, stopServer, err := serveInProcess(tr.middleware(service.NewHandler(sched)))
	if err != nil {
		return cr, err
	}
	defer stopServer()

	// Both twins install a run hook, so they differ only in the spans.
	run := func(o sim.Options) (*sim.RunResult, error) {
		if tr == nil {
			return sim.Run(o)
		}
		id, _ := service.SpecFromOptions(o).Hash()
		i := tr.start("sim.run", id, -1)
		defer tr.end(i, nil)
		return sim.Run(o)
	}
	wln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return cr, err
	}
	w, err := worker.New(worker.Options{Server: base, Advertise: "http://" + wln.Addr().String(),
		Name: "traced-worker", Capacity: workerCapacity, Run: run})
	if err != nil {
		wln.Close()
		return cr, err
	}
	stopWorkerHTTP := serve(wln, tr.middleware(w.Handler()))
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- w.Run(ctx) }()
	stopWorker := func() {
		cancel()
		<-runDone
		stopWorkerHTTP()
		w.Close()
	}
	if err := pollUntil(10*time.Second, func() bool { return workersRegistered(base) == 1 }); err != nil {
		stopWorker()
		return cr, fmt.Errorf("in-process worker never registered: %w", err)
	}

	out, err := runSweep(base, cells)
	if err != nil {
		stopWorker()
		return cr, err
	}
	cr.wall = out.wall
	if out.failed > 0 {
		err = fmt.Errorf("in-process sweep: %d cells failed or carried a wrong hash", out.failed)
	}
	// Write-backs are asynchronous; let them land before counting.
	_ = pollUntil(10*time.Second, func() bool {
		return sched.Metrics().StoreRemoteWritebacks >= uint64(len(cells))
	})
	stopWorker()
	_, _ = settledMetrics(func() (map[string]float64, error) { return snapshotMap(sched.Metrics()), nil },
		func(m map[string]float64) bool { return m["jobs_executed_total"] >= float64(len(cells)) })
	cr.m = sched.Metrics()
	cr.storeBytes = dirBytes(dir)
	return cr, err
}

// tracedCluster runs the workload's sweep untraced, then traced, and
// derives the service, wire, worker and share metrics from the spans.
func tracedCluster(e *env, tr *tracer, res *result, cells []cell) {
	// Untraced, traced, traced, untraced: the symmetric order cancels a
	// linear drift (warm-up, a neighbour's load) out of the overhead.
	var plainWall, tracedWall time.Duration
	var walls []float64
	var traced clusterRun
	var first, last int
	for _, on := range []bool{false, true, true, false} {
		res.Attempted += len(cells)
		t := tr
		if !on {
			t = nil
		} else if first == 0 {
			first = len(tr.snapshot())
		}
		cr, err := inProcessCluster(e, t, cells)
		if err != nil {
			res.fail(err)
			continue
		}
		if err := sweepHygiene(snapshotMap(cr.m), len(cells)); err != nil {
			res.invalid(err)
		}
		walls = append(walls, cr.wall.Seconds())
		if on {
			tracedWall += cr.wall
			if last == 0 {
				traced, last = cr, len(tr.snapshot())
			}
		} else {
			plainWall += cr.wall
		}
	}
	// Per-layer figures come from the first traced sweep.
	spans := tr.snapshot()[first:last]

	// Link each worker simulation to the batch dispatch that carried it.
	batchOf := make(map[string]int) // cell hash → index into spans
	for i, s := range spans {
		if s.Name == "wire.execute_batch" {
			for _, h := range s.Items {
				batchOf[h] = i
			}
		}
	}
	children := make(map[int][]span)
	for i, s := range spans {
		if s.Name != "sim.run" {
			continue
		}
		if b, ok := batchOf[s.ID]; ok && s.Start >= spans[b].Start && s.End <= spans[b].End {
			children[b] = append(children[b], s)
			tr.link(first+i, first+b)
		}
	}
	var items, in, out int
	var self time.Duration
	batches := named(spans, "wire.execute_batch")
	for i, s := range spans {
		if s.Name == "wire.execute_batch" {
			items += len(s.Items)
			in += int(s.In)
			out += int(s.Out)
			self += selfTime(s, children[i])
		}
	}
	executed := float64(traced.m.JobsExecuted)
	wait, dispatched := classWait(traced.m, service.ClassBatch)

	res.set("http.sweep_submit_ms", meanMS(named(spans, "http.sweep_submit")), "ms")
	res.set("wire.execute_batch_ms", meanMS(batches), "ms")
	res.set("wire.request_bytes_per_cell", float64(in)/float64(items), "bytes")
	res.set("wire.response_bytes_per_cell", float64(out)/float64(items), "bytes")
	res.set("worker.self_ms_per_cell", ms(self)/float64(items), "ms")
	res.set("service.batch_cells_mean", float64(items)/float64(len(batches)), "count")
	res.set("service.queue_wait_ms_mean.batch", wait*1e3/float64(dispatched), "ms")
	res.set("share.lookup_ms", meanMS(named(spans, "share.lookup")), "ms")
	res.set("share.writeback_ms", meanMS(named(spans, "share.writeback")), "ms")
	res.set("store.writes_per_cell", float64(traced.m.StoreWrites)/executed, "count")
	res.set("store.bytes_per_cell", float64(traced.storeBytes)/executed, "bytes")
	res.set("bench.trace_overhead_frac", (tracedWall.Seconds()-plainWall.Seconds())/plainWall.Seconds(), "frac")
	res.note("in-process sweeps of %d cells, untraced/traced/traced/untraced: %.3f s", len(cells), walls)
}

// tracedInteractive runs a short open loop against an in-process server
// configured like the interactive-rw one.
func tracedInteractive(e *env, tr *tracer, res *result, sp *space) error {
	dir, err := mkRunDir(e.root, "traced-interactive-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sched, err := service.Open(service.Config{Workers: 2, CacheSize: lruEntries, DataDir: dir})
	if err != nil {
		return err
	}
	defer sched.Close()
	base, stop, err := serveInProcess(tr.middleware(service.NewHandler(sched)))
	if err != nil {
		return err
	}
	defer stop()

	ctx := context.Background()
	rc := newRunClient(base, interactiveConns)
	hot := sp.hotPool()
	warmStart := time.Now()
	if err := rc.warm(ctx, hot, interactiveConns); err != nil {
		return err
	}
	warmup := time.Since(warmStart)

	sch := interactiveSchedule(sp, e.seed, interactiveRate, int(interactiveRate*tracedOpenLoopSecs))
	// The warm-up executed every hot cell; wait for the counter to say so,
	// or its lag would be charged to the open loop.
	_ = pollUntil(2*time.Second, func() bool { return sched.Metrics().JobsExecuted >= uint64(len(hot)) })
	before := sched.Metrics()
	first := len(tr.snapshot())
	o := driveInteractive(ctx, rc, sch, e.seed)
	o.predictedLRUHit = predictLRUHits(hot, sch, lruEntries)
	afterMap, _ := settledMetrics(func() (map[string]float64, error) { return snapshotMap(sched.Metrics()), nil },
		func(m map[string]float64) bool {
			return m["jobs_executed_total"]-float64(before.JobsExecuted) >= float64(o.writeN)
		})
	after := sched.Metrics()
	res.Attempted += len(sch)
	for _, err := range o.errs {
		res.fail(err)
	}
	if _, err := interactiveHygiene(snapshotMap(before), afterMap, o); err != nil {
		res.invalid(err)
	}
	for _, ci := range o.sampled {
		if err := ci.verify(); err != nil {
			res.fail(err)
		}
	}

	isHot := make(map[string]bool, len(hot))
	for _, c := range hot {
		isHot[c.Hash] = true
	}
	var reads, writes []span
	for _, s := range named(tr.snapshot()[first:], "http.run") {
		if isHot[s.ID] {
			reads = append(reads, s)
		} else {
			writes = append(writes, s)
		}
	}
	w0, d0 := classWait(before, service.ClassInteractive)
	w1, d1 := classWait(after, service.ClassInteractive)
	requests := float64(len(sch))
	res.set("http.run_read_ms", meanMS(reads), "ms")
	res.set("http.run_write_ms", meanMS(writes), "ms")
	res.set("service.queue_wait_ms_mean.interactive", (w1-w0)*1e3/float64(d1-d0), "ms")
	res.set("service.cache_hit_ratio", float64(after.CacheHits-before.CacheHits)/requests, "frac")
	res.set("service.store_hit_ratio", float64(after.StoreHits-before.StoreHits)/requests, "frac")
	res.set("bench.gen_late_p99_ms", percentile(o.late, 0.99), "ms")
	res.set("bench.warmup_s", warmup.Seconds(), "s")
	return nil
}

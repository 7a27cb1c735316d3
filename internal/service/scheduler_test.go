package service

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"constable/internal/pipeline"
	"constable/internal/sim"
)

// newStubScheduler returns a scheduler whose workers run fn instead of a
// real simulation. fn must be installed before the first Submit.
func newStubScheduler(t *testing.T, cfg Config, fn func(sim.Options) (*sim.RunResult, error)) *Scheduler {
	t.Helper()
	s := New(cfg)
	s.runFn = fn
	t.Cleanup(func() { s.Close() })
	return s
}

func countingRun(calls *atomic.Uint64) func(sim.Options) (*sim.RunResult, error) {
	return func(opts sim.Options) (*sim.RunResult, error) {
		calls.Add(1)
		return &sim.RunResult{Cycles: opts.Instructions}, nil
	}
}

func TestSchedulerRunsConcurrently(t *testing.T) {
	var calls atomic.Uint64
	s := newStubScheduler(t, Config{Workers: 4}, countingRun(&calls))
	name := testWorkload(t)

	jobs := make([]*Job, 0, 16)
	for i := 0; i < 16; i++ {
		j, err := s.Submit(JobSpec{Workload: name, Instructions: uint64(1000 + i)})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i, j := range jobs {
		res, err := j.Wait(ctx)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if res.Cycles != uint64(1000+i) {
			t.Errorf("job %d: got result for wrong spec (cycles %d)", i, res.Cycles)
		}
		if j.Status() != StatusDone {
			t.Errorf("job %d: status %s, want done", i, j.Status())
		}
	}
	if calls.Load() != 16 {
		t.Errorf("ran %d simulations, want 16 (all specs distinct)", calls.Load())
	}
}

func TestSchedulerDedupAndCache(t *testing.T) {
	var calls atomic.Uint64
	gate := make(chan struct{})
	s := newStubScheduler(t, Config{Workers: 2}, func(opts sim.Options) (*sim.RunResult, error) {
		<-gate
		calls.Add(1)
		return &sim.RunResult{Cycles: 42}, nil
	})
	name := testWorkload(t)
	spec := JobSpec{Workload: name, Mechanism: "constable", Instructions: 5000}

	// Two submissions while the first is still in flight share one job.
	j1, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if j1 != j2 {
		t.Error("in-flight duplicate spec got a distinct job")
	}
	close(gate)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := j1.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	// A third submission after completion is served from the cache.
	j3, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := j3.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !j3.CacheHit() {
		t.Error("post-completion duplicate was not a cache hit")
	}
	if res.Cycles != 42 {
		t.Errorf("cached result cycles = %d, want 42", res.Cycles)
	}
	if calls.Load() != 1 {
		t.Errorf("ran %d simulations for 3 identical submissions, want 1", calls.Load())
	}
	m := s.Metrics()
	if m.JobsSubmitted != 3 || m.JobsDeduped != 1 || m.CacheHits != 1 || m.JobsCompleted != 1 {
		t.Errorf("metrics = %+v, want submitted 3 / deduped 1 / cache hits 1 / completed 1", m)
	}
}

func TestSchedulerCancelQueued(t *testing.T) {
	gate := make(chan struct{})
	s := newStubScheduler(t, Config{Workers: 1}, func(opts sim.Options) (*sim.RunResult, error) {
		<-gate
		return &sim.RunResult{}, nil
	})
	name := testWorkload(t)

	blocker, err := s.Submit(JobSpec{Workload: name, Instructions: 1000})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the single worker has picked the blocker up.
	deadline := time.Now().Add(5 * time.Second)
	for blocker.Status() != StatusRunning {
		if time.Now().After(deadline) {
			t.Fatal("blocker never started running")
		}
		time.Sleep(time.Millisecond)
	}

	victim, err := s.Submit(JobSpec{Workload: name, Instructions: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if victim.Status() != StatusQueued {
		t.Fatalf("victim status %s, want queued", victim.Status())
	}
	if !s.Cancel(victim.ID) {
		t.Fatal("Cancel(queued job) = false")
	}
	if victim.Status() != StatusCanceled {
		t.Errorf("victim status %s, want canceled", victim.Status())
	}
	if _, err := victim.Result(); !errors.Is(err, ErrCanceled) {
		t.Errorf("victim error = %v, want ErrCanceled", err)
	}
	// A running job cannot be canceled.
	if s.Cancel(blocker.ID) {
		t.Error("Cancel(running job) = true")
	}
	close(gate)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := blocker.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	// The canceled spec must re-run when resubmitted (nothing was cached).
	resub, err := s.Submit(JobSpec{Workload: name, Instructions: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resub.Wait(ctx); err != nil {
		t.Errorf("resubmitted canceled spec failed: %v", err)
	}
}

func TestSchedulerFailurePropagates(t *testing.T) {
	boom := errors.New("boom")
	s := newStubScheduler(t, Config{Workers: 1}, func(opts sim.Options) (*sim.RunResult, error) {
		return nil, boom
	})
	j, err := s.Submit(JobSpec{Workload: testWorkload(t), Instructions: 1000})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := j.Wait(ctx); !errors.Is(err, boom) {
		t.Fatalf("Wait error = %v, want boom", err)
	}
	if j.Status() != StatusFailed {
		t.Errorf("status %s, want failed", j.Status())
	}
	// Failures must not be cached: resubmitting runs again.
	j2, err := s.Submit(JobSpec{Workload: testWorkload(t), Instructions: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if j2.CacheHit() {
		t.Error("failed result was served from cache")
	}
}

func TestSchedulerShutdown(t *testing.T) {
	gate := make(chan struct{})
	s := New(Config{Workers: 1})
	s.runFn = func(opts sim.Options) (*sim.RunResult, error) {
		<-gate
		return &sim.RunResult{}, nil
	}
	name := testWorkload(t)
	running, _ := s.Submit(JobSpec{Workload: name, Instructions: 1000})
	deadline := time.Now().Add(5 * time.Second)
	for running.Status() != StatusRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	queued, _ := s.Submit(JobSpec{Workload: name, Instructions: 2000})

	done := make(chan error, 1)
	go func() { done <- s.Shutdown(context.Background()) }()

	// The queued job is canceled promptly even while one is still running.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := queued.Wait(ctx); !errors.Is(err, ErrCanceled) {
		t.Errorf("queued job error = %v, want ErrCanceled", err)
	}

	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := running.Result(); err != nil {
		t.Errorf("running job should have finished cleanly, got %v", err)
	}
	if _, err := s.Submit(JobSpec{Workload: name, Instructions: 3000}); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("Submit after shutdown = %v, want ErrShuttingDown", err)
	}
}

func TestSchedulerJobRetention(t *testing.T) {
	var calls atomic.Uint64
	s := newStubScheduler(t, Config{Workers: 1, JobRetention: 2}, countingRun(&calls))
	name := testWorkload(t)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var ids []string
	for i := 0; i < 4; i++ {
		j, err := s.Submit(JobSpec{Workload: name, Instructions: uint64(1000 + i)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	// Only the 2 most recently finished jobs stay pollable.
	for _, id := range ids[:2] {
		if _, ok := s.Get(id); ok {
			t.Errorf("job %s still pollable beyond retention", id)
		}
	}
	for _, id := range ids[2:] {
		if _, ok := s.Get(id); !ok {
			t.Errorf("job %s evicted within retention", id)
		}
	}
}

// TestSchedulerRealSimulation exercises the scheduler end-to-end over the
// actual simulator once, checking the result matches a direct sim.Run.
func TestSchedulerRealSimulation(t *testing.T) {
	s := New(Config{Workers: 2})
	t.Cleanup(func() { s.Close() })
	name := testWorkload(t)
	spec := JobSpec{Workload: name, Mechanism: "constable", Instructions: 5000}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	got, err := s.RunSync(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := spec.ToOptions()
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != want.Cycles || got.IPC != want.IPC {
		t.Errorf("scheduler result (cycles %d, IPC %.4f) differs from direct sim.Run (cycles %d, IPC %.4f)",
			got.Cycles, got.IPC, want.Cycles, want.IPC)
	}
}

// TestSimulatorPanicFailsOnlyItsJob submits a spec whose core has a negative
// port count, which panics inside pipeline.NewCore: the job must fail with
// the panic and its stack, and the scheduler must keep serving.
func TestSimulatorPanicFailsOnlyItsJob(t *testing.T) {
	s := New(Config{Workers: 1})
	t.Cleanup(func() { s.Close() })
	name := testWorkload(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	core := pipeline.DefaultConfig()
	core.NumALUPorts = -1
	_, err := s.RunSync(ctx, JobSpec{Workload: name, Mechanism: "constable", Instructions: 2000, Core: &core})
	if err == nil {
		t.Fatal("a spec that panics the simulator succeeded")
	}
	if msg := err.Error(); !strings.Contains(msg, "panicked") || !strings.Contains(msg, "pipeline.NewCore") {
		t.Errorf("error lacks the panic and its stack: %v", err)
	}

	good, err := s.RunSync(ctx, JobSpec{Workload: name, Mechanism: "constable", Instructions: 2000})
	if err != nil {
		t.Fatalf("scheduler stopped serving after a panicking job: %v", err)
	}
	if good.Pipeline.Retired != 2000 {
		t.Errorf("retired %d, want 2000", good.Pipeline.Retired)
	}
}

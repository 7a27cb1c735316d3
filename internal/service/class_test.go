package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"testing"
	"time"

	"constable/internal/sim"
	"constable/internal/workload"
)

func jsonBody(t *testing.T, v any) io.Reader {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(b)
}

func queueJob(id, class string) *Job {
	return &Job{ID: id, Class: class, submitted: time.Now(), done: make(chan struct{})}
}

func popOrder(q *multiQueue) []string {
	var ids []string
	now := time.Now()
	for j := q.pop(now); j != nil; j = q.pop(now) {
		ids = append(ids, j.ID)
	}
	return ids
}

// TestMultiQueueDRRWeightedOrder pins the deficit-round-robin dispatch
// order: with interactive weight 2 over batch weight 1, a full backlog
// drains two interactive jobs per batch job until a class empties.
func TestMultiQueueDRRWeightedOrder(t *testing.T) {
	q := newMultiQueue(map[string]int{ClassInteractive: 2, ClassBatch: 1}, 0)
	for i := 1; i <= 4; i++ {
		q.push(queueJob(fmt.Sprintf("i%d", i), ClassInteractive))
		q.push(queueJob(fmt.Sprintf("b%d", i), ClassBatch))
	}
	got := popOrder(q)
	want := []string{"i1", "i2", "b1", "i3", "i4", "b2", "b3", "b4"}
	if len(got) != len(want) {
		t.Fatalf("popped %d jobs, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch order = %v, want %v", got, want)
		}
	}
	if q.len() != 0 {
		t.Errorf("queue size after drain = %d, want 0", q.len())
	}
}

// TestMultiQueueSingleClassIsFIFO pins the degenerate case that keeps sweep
// artifacts byte-identical to the single-queue scheduler: with one active
// class, dispatch is pure submission-order FIFO regardless of weights.
func TestMultiQueueSingleClassIsFIFO(t *testing.T) {
	q := newMultiQueue(nil, 0)
	var want []string
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("b%d", i)
		want = append(want, id)
		q.push(queueJob(id, ClassBatch))
	}
	got := popOrder(q)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("single-class order = %v, want %v", got, want)
		}
	}
}

// TestMultiQueueRequeueFrontKeepsIntraClassFIFO is the regression test for
// the requeue path: a failed chunk's cells must re-enter at the head of
// THEIR OWN class queue — oldest first, ahead of that class's later
// submissions, but never displacing another class's jobs — exactly as the
// single-queue scheduler requeued at the global head.
func TestMultiQueueRequeueFrontKeepsIntraClassFIFO(t *testing.T) {
	q := newMultiQueue(nil, 0)
	for i := 1; i <= 4; i++ {
		q.push(queueJob(fmt.Sprintf("b%d", i), ClassBatch))
	}
	// A chunk of the two oldest batch cells dispatches...
	chunk := q.popN(2, time.Now())
	if len(chunk) != 2 || chunk[0].ID != "b1" || chunk[1].ID != "b2" {
		t.Fatalf("chunk = %v, want [b1 b2]", chunk)
	}
	// ...while other-class jobs arrive concurrently...
	q.push(queueJob("i1", ClassInteractive))
	q.push(queueJob("i2", ClassInteractive))
	// ...and then the chunk's backend fails, requeueing it.
	q.requeueFront(chunk)

	if got := q.depth(ClassBatch); got != 4 {
		t.Fatalf("batch depth after requeue = %d, want 4", got)
	}
	if got := q.position(chunk[0]); got != 1 {
		t.Errorf("requeued b1 position = %d, want 1 (head of its class)", got)
	}
	var batchOrder, interOrder []string
	for _, id := range popOrder(q) {
		if id[0] == 'b' {
			batchOrder = append(batchOrder, id)
		} else {
			interOrder = append(interOrder, id)
		}
	}
	wantBatch := []string{"b1", "b2", "b3", "b4"}
	for i := range wantBatch {
		if batchOrder[i] != wantBatch[i] {
			t.Fatalf("intra-class batch order = %v, want %v", batchOrder, wantBatch)
		}
	}
	wantInter := []string{"i1", "i2"}
	for i := range wantInter {
		if interOrder[i] != wantInter[i] {
			t.Fatalf("interactive order = %v, want %v", interOrder, wantInter)
		}
	}
}

// TestMultiQueueClassCap pins the anti-abuse fold: past maxClasses distinct
// names, new class names collapse into the built-in class of their kind
// instead of minting unbounded queues and metric rows.
func TestMultiQueueClassCap(t *testing.T) {
	q := newMultiQueue(nil, 0)
	for i := 0; i < maxClasses+10; i++ {
		name := q.resolve(fmt.Sprintf("tenant-%d", i))
		q.push(queueJob(fmt.Sprintf("t%d", i), name))
	}
	if got := len(q.classes); got > maxClasses {
		t.Errorf("materialized %d classes, cap is %d", got, maxClasses)
	}
	if got := q.resolve("batch:late-tenant"); got != ClassBatch {
		t.Errorf("over-cap batch tenant resolved to %q, want %q", got, ClassBatch)
	}
	if got := q.resolve("late-tenant"); got != ClassInteractive {
		t.Errorf("over-cap tenant resolved to %q, want %q", got, ClassInteractive)
	}
}

// TestAdmissionWatermarkBoundary pins the admission edge: the submission
// that brings a class's depth exactly to QueueMax is admitted, the next is
// refused with a 429-shaped *QueueFullError whose Retry-After estimate is
// sane, and a duplicate of an in-flight spec still dedups instead of being
// refused.
func TestAdmissionWatermarkBoundary(t *testing.T) {
	s, err := Open(Config{Workers: -1, WorkerTTL: time.Hour, QueueMax: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	name := testWorkload(t)

	j1, err := s.Submit(JobSpec{Workload: name, Instructions: 1001})
	if err != nil {
		t.Fatalf("first submission refused: %v", err)
	}
	// This one lands exactly at the watermark — it must be admitted.
	if _, err := s.Submit(JobSpec{Workload: name, Instructions: 1002}); err != nil {
		t.Fatalf("submission at the watermark refused: %v", err)
	}
	if got := s.ClassQueueDepth(ClassInteractive); got != 2 {
		t.Fatalf("interactive depth = %d, want 2", got)
	}

	_, err = s.Submit(JobSpec{Workload: name, Instructions: 1003})
	var qf *QueueFullError
	if !errors.As(err, &qf) {
		t.Fatalf("over-watermark submission returned %v, want *QueueFullError", err)
	}
	if qf.Class != ClassInteractive || qf.Depth != 2 || qf.Limit != 2 {
		t.Errorf("QueueFullError = %+v, want class=interactive depth=2 limit=2", qf)
	}
	if qf.RetryAfter < time.Second || qf.RetryAfter > 60*time.Second {
		t.Errorf("RetryAfter = %v, want within [1s, 60s]", qf.RetryAfter)
	}
	if got := s.Metrics().AdmissionRejected; got != 1 {
		t.Errorf("admission_rejected = %d, want 1", got)
	}

	// A duplicate of a queued spec needs no queue slot: it must dedup onto
	// the existing job, never hit admission control.
	dup, err := s.Submit(JobSpec{Workload: name, Instructions: 1001})
	if err != nil {
		t.Fatalf("duplicate of in-flight spec refused by admission: %v", err)
	}
	if dup != j1 {
		t.Error("duplicate submission did not dedup onto the existing job")
	}

	// Batch-kind classes are exempt up to 64x the watermark: a sweep-sized
	// burst must be admitted even with the interactive queue full.
	for i := 0; i < 10; i++ {
		spec := JobSpec{Workload: name, Instructions: uint64(2000 + i)}
		if _, err := s.SubmitWith(spec, SubmitOptions{Class: ClassBatch}); err != nil {
			t.Fatalf("batch submission %d refused: %v", i, err)
		}
	}
}

// TestAdmissionBatchWatermark pins the batch class's own, scaled limit:
// 64xQueueMax admits, one more is refused.
func TestAdmissionBatchWatermark(t *testing.T) {
	s, err := Open(Config{Workers: -1, WorkerTTL: time.Hour, QueueMax: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	name := testWorkload(t)

	limit := 1 * batchWatermarkFactor
	for i := 0; i < limit; i++ {
		spec := JobSpec{Workload: name, Instructions: uint64(3000 + i)}
		if _, err := s.SubmitWith(spec, SubmitOptions{Class: ClassBatch}); err != nil {
			t.Fatalf("batch submission %d/%d refused: %v", i+1, limit, err)
		}
	}
	_, err = s.SubmitWith(JobSpec{Workload: name, Instructions: 9999}, SubmitOptions{Class: ClassBatch})
	var qf *QueueFullError
	if !errors.As(err, &qf) {
		t.Fatalf("batch submission over 64x watermark returned %v, want *QueueFullError", err)
	}
	if qf.Limit != limit {
		t.Errorf("batch limit = %d, want %d", qf.Limit, limit)
	}
}

// TestAdmissionDisabledByDefault: without QueueMax, any depth queues.
func TestAdmissionDisabledByDefault(t *testing.T) {
	s := newDispatchScheduler(t)
	name := testWorkload(t)
	for i := 0; i < 50; i++ {
		if _, err := s.Submit(JobSpec{Workload: name, Instructions: uint64(4000 + i)}); err != nil {
			t.Fatalf("submission %d refused with admission disabled: %v", i, err)
		}
	}
	if got := s.QueueDepth(); got != 50 {
		t.Errorf("queue depth = %d, want 50", got)
	}
}

// TestTenantDoesNotAffectHash pins class/tenant as a pure scheduling
// attribute: two specs differing only in Tenant hash identically, so
// results dedup and cache across tenants.
func TestTenantDoesNotAffectHash(t *testing.T) {
	name := testWorkload(t)
	base := JobSpec{Workload: name, Mechanism: "constable", Instructions: 50_000}
	a, b := base, base
	a.Tenant = "team-a"
	b.Tenant = "team-b"
	ha, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hn, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb || ha != hn {
		t.Errorf("tenant leaked into the spec hash: %s / %s / %s", ha, hb, hn)
	}
}

// scriptBackend is a ctx-aware Backend whose behavior is keyed on the
// global call number — shared across two registered workers, it makes hedge
// tests deterministic no matter which slot the dispatcher picks as primary.
type scriptBackend struct {
	mu    sync.Mutex
	calls int
	fn    func(call int, ctx context.Context, spec JobSpec) (*sim.RunResult, error)
}

func (b *scriptBackend) Name() string  { return "script" }
func (b *scriptBackend) Capacity() int { return 1 }
func (b *scriptBackend) Execute(ctx context.Context, spec JobSpec, hash string) (*sim.RunResult, error) {
	b.mu.Lock()
	b.calls++
	n := b.calls
	b.mu.Unlock()
	return b.fn(n, ctx, spec)
}
func (b *scriptBackend) ExecuteBatch(ctx context.Context, specs []JobSpec, hashes []string) ([]BatchResult, error) {
	out := make([]BatchResult, len(specs))
	for i := range specs {
		res, err := b.Execute(ctx, specs[i], hashes[i])
		out[i] = BatchResult{Result: res, Err: err}
	}
	return out, nil
}

func newHedgeScheduler(t *testing.T, sb *scriptBackend) *Scheduler {
	t.Helper()
	s, err := Open(Config{Workers: -1, WorkerTTL: time.Hour, HedgeAfter: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	s.Backend().AddWorker("w1", "fake://w1", 1, sb)
	s.Backend().AddWorker("w2", "fake://w2", 1, sb)
	return s
}

// TestHedgeBeatsWedgedPrimary: a straggling remote dispatch is duplicated
// onto the second worker after HedgeAfter; the hedge's result wins, the
// primary's request is canceled, and neither worker is demoted.
func TestHedgeBeatsWedgedPrimary(t *testing.T) {
	sb := &scriptBackend{}
	sb.fn = func(call int, ctx context.Context, spec JobSpec) (*sim.RunResult, error) {
		if call == 1 {
			// The primary wedges until its request is canceled.
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return okResult(spec, "")
	}
	s := newHedgeScheduler(t, sb)
	name := testWorkload(t)

	j, err := s.Submit(JobSpec{Workload: name, Instructions: 7777})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := j.Wait(ctx)
	if err != nil {
		t.Fatalf("hedged job failed: %v", err)
	}
	if res.Cycles != 7777 {
		t.Errorf("result cycles = %d, want 7777", res.Cycles)
	}
	m := s.Metrics()
	if m.HedgesDispatched != 1 || m.HedgesWon != 1 || m.HedgesLost != 0 {
		t.Errorf("hedge stats = dispatched %d won %d lost %d, want 1/1/0",
			m.HedgesDispatched, m.HedgesWon, m.HedgesLost)
	}
	// The canceled primary must not demote its worker: the cancellation was
	// ours, not a worker fault.
	for _, v := range s.Workers() {
		if !v.Healthy {
			t.Errorf("worker %s demoted after losing a hedge race", v.Name)
		}
	}
}

// TestHedgeLosesToPrimary: the primary answers first; the in-flight hedge
// is counted lost and its request abandoned.
func TestHedgeLosesToPrimary(t *testing.T) {
	sb := &scriptBackend{}
	sb.fn = func(call int, ctx context.Context, spec JobSpec) (*sim.RunResult, error) {
		if call == 1 {
			select {
			case <-time.After(100 * time.Millisecond):
				return okResult(spec, "")
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		// The hedge wedges; it only unblocks when abandoned.
		<-ctx.Done()
		return nil, ctx.Err()
	}
	s := newHedgeScheduler(t, sb)
	name := testWorkload(t)

	j, err := s.Submit(JobSpec{Workload: name, Instructions: 8888})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := j.Wait(ctx)
	if err != nil {
		t.Fatalf("job failed: %v", err)
	}
	if res.Cycles != 8888 {
		t.Errorf("result cycles = %d, want 8888", res.Cycles)
	}
	m := s.Metrics()
	if m.HedgesDispatched != 1 || m.HedgesWon != 0 || m.HedgesLost != 1 {
		t.Errorf("hedge stats = dispatched %d won %d lost %d, want 1/0/1",
			m.HedgesDispatched, m.HedgesWon, m.HedgesLost)
	}
}

// TestHedgeRescuesFailedPrimary: the primary dies at the transport level
// with a hedge already in flight — the hedge's result saves the cell
// instead of requeueing it.
func TestHedgeRescuesFailedPrimary(t *testing.T) {
	sb := &scriptBackend{}
	sb.fn = func(call int, ctx context.Context, spec JobSpec) (*sim.RunResult, error) {
		if call == 1 {
			select {
			case <-time.After(40 * time.Millisecond):
			case <-ctx.Done():
			}
			return nil, fmt.Errorf("%w: connection reset", ErrBackendUnavailable)
		}
		select {
		case <-time.After(60 * time.Millisecond):
			return okResult(spec, "")
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	s := newHedgeScheduler(t, sb)
	name := testWorkload(t)

	j, err := s.Submit(JobSpec{Workload: name, Instructions: 6543})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := j.Wait(ctx)
	if err != nil {
		t.Fatalf("job failed despite hedge rescue: %v", err)
	}
	if res.Cycles != 6543 {
		t.Errorf("result cycles = %d, want 6543", res.Cycles)
	}
	if m := s.Metrics(); m.HedgesWon != 1 {
		t.Errorf("hedges won = %d, want 1 (the hedge saved the cell)", m.HedgesWon)
	}
}

// TestInteractiveBoundedWaitUnderSweepFlood is the PR's acceptance
// scenario: a 500-cell batch sweep saturates the queue, yet a concurrent
// interactive submission overtakes the backlog under fair-share dispatch
// and completes with bounded wait while the sweep is still deep.
func TestInteractiveBoundedWaitUnderSweepFlood(t *testing.T) {
	fn := func(opts sim.Options) (*sim.RunResult, error) {
		time.Sleep(time.Millisecond)
		return &sim.RunResult{Cycles: opts.Instructions}, nil
	}
	s := newStubScheduler(t, Config{Workers: 2, MaxBatch: 1, QueueMax: 8}, fn)
	name := testWorkload(t)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sw, err := s.StartSweep(ctx, testMatrix(25, 20, 100_000), SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := sw.View().Class; got != ClassBatch {
		t.Errorf("sweep class = %q, want %q", got, ClassBatch)
	}
	if got := s.ClassQueueDepth(ClassBatch); got < 100 {
		t.Fatalf("batch depth after sweep submit = %d, want a deep backlog", got)
	}

	start := time.Now()
	j, err := s.Submit(JobSpec{Workload: name, Instructions: 5555})
	if err != nil {
		t.Fatalf("interactive submission refused during sweep: %v", err)
	}
	wctx, wcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer wcancel()
	res, err := j.Wait(wctx)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("interactive job did not complete under sweep load: %v", err)
	}
	if res.Cycles != 5555 {
		t.Errorf("result cycles = %d, want 5555", res.Cycles)
	}
	if elapsed > 2*time.Second {
		t.Errorf("interactive wait = %v under a 500-cell sweep, want bounded (<2s)", elapsed)
	}
	if got := s.ClassQueueDepth(ClassBatch); got == 0 {
		t.Error("batch queue drained before the interactive job finished — the test did not exercise overtaking")
	}
}

// TestAPIQueuePositionClassAndAdmission covers the HTTP surface of the
// multi-class scheduler: class and queue_position in run views, 429 +
// Retry-After on admission refusal, and tenant overrides via header and
// JSON field.
func TestAPIQueuePositionClassAndAdmission(t *testing.T) {
	srv, s := newTestServer(t, Config{Workers: -1, WorkerTTL: time.Hour, QueueMax: 2}, nil)
	name := testWorkload(t)

	v1 := decodeJob(t, postJSON(t, srv.URL+"/v1/runs", JobSpec{Workload: name, Instructions: 1001}))
	if v1.Class != ClassInteractive || v1.QueuePosition != 1 {
		t.Errorf("first run view class=%q position=%d, want interactive/1", v1.Class, v1.QueuePosition)
	}
	v2 := decodeJob(t, postJSON(t, srv.URL+"/v1/runs", JobSpec{Workload: name, Instructions: 1002}))
	if v2.QueuePosition != 2 {
		t.Errorf("second run position = %d, want 2", v2.QueuePosition)
	}

	// Poll view reports the same scheduling fields.
	resp, err := http.Get(srv.URL + "/v1/runs/" + v2.ID)
	if err != nil {
		t.Fatal(err)
	}
	pv := decodeJob(t, resp)
	if pv.Class != ClassInteractive || pv.QueuePosition != 2 {
		t.Errorf("poll view class=%q position=%d, want interactive/2", pv.Class, pv.QueuePosition)
	}

	// Over the watermark: 429 with a sane Retry-After.
	resp = postJSON(t, srv.URL+"/v1/runs", JobSpec{Workload: name, Instructions: 1003})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-watermark status = %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 || ra > 60 {
		t.Errorf("Retry-After = %q, want integer seconds in [1, 60]", resp.Header.Get("Retry-After"))
	}

	// A tenant header opens a separate class with its own watermark.
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/runs",
		jsonBody(t, JobSpec{Workload: name, Instructions: 1004}))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Constable-Tenant", "team-a")
	hresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	hv := decodeJob(t, hresp)
	if hv.Class != "team-a" || hv.QueuePosition != 1 {
		t.Errorf("tenant-header view class=%q position=%d, want team-a/1", hv.Class, hv.QueuePosition)
	}

	// The JSON tenant field works too, and never perturbs the spec hash.
	jv := decodeJob(t, postJSON(t, srv.URL+"/v1/runs", JobSpec{Workload: name, Instructions: 1005, Tenant: "team-b"}))
	if jv.Class != "team-b" {
		t.Errorf("tenant-field view class = %q, want team-b", jv.Class)
	}
	if got := s.ClassQueueDepth("team-b"); got != 1 {
		t.Errorf("team-b depth = %d, want 1", got)
	}

	// Invalid tenant names are rejected before they become queue names and
	// metric labels.
	req, err = http.NewRequest(http.MethodPost, srv.URL+"/v1/runs",
		jsonBody(t, JobSpec{Workload: name, Instructions: 1006}))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Constable-Tenant", "no/slashes allowed")
	bresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer bresp.Body.Close()
	if bresp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid tenant status = %d, want 400", bresp.StatusCode)
	}
}

// TestAPISweepTenantClass: a sweep submitted with a tenant queues its cells
// under the tenant-scoped batch class.
func TestAPISweepTenantClass(t *testing.T) {
	srv, s := newTestServer(t, Config{Workers: -1, WorkerTTL: time.Hour}, nil)
	resp := postJSON(t, srv.URL+"/v1/sweeps", SweepRequest{
		Workloads:    []string{testWorkload(t)},
		Mechanisms:   []string{"baseline", "constable"},
		Instructions: 50_000,
		Tenant:       "acme",
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep submit status = %d", resp.StatusCode)
	}
	var sv SweepView
	if err := json.NewDecoder(resp.Body).Decode(&sv); err != nil {
		t.Fatal(err)
	}
	if sv.Class != "batch:acme" {
		t.Errorf("sweep class = %q, want batch:acme", sv.Class)
	}
	if got := s.ClassQueueDepth("batch:acme"); got != 2 {
		t.Errorf("batch:acme depth = %d, want 2", got)
	}
}

// BenchmarkSchedulerMixedLoad measures interactive submit→result latency
// while a feeder keeps the batch class flooded — the number CI tracks as
// BENCH_sched.json. The custom metric is the average end-to-end wait of one
// interactive job under contention.
func BenchmarkSchedulerMixedLoad(b *testing.B) {
	fn := func(opts sim.Options) (*sim.RunResult, error) {
		time.Sleep(100 * time.Microsecond)
		return &sim.RunResult{Cycles: opts.Instructions}, nil
	}
	s := New(Config{Workers: 4, MaxBatch: 1})
	defer s.Close()
	s.runFn = fn
	name := workload.SmallSuite()[0].Name

	// Feeder: keep ~256 batch cells queued at all times.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var n uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			if s.ClassQueueDepth(ClassBatch) < 256 {
				n++
				spec := JobSpec{Workload: name, Instructions: 1_000_000 + n}
				if _, err := s.SubmitWith(spec, SubmitOptions{Class: ClassBatch}); err != nil {
					return
				}
				continue
			}
			time.Sleep(time.Millisecond)
		}
	}()
	for s.ClassQueueDepth(ClassBatch) < 64 {
		time.Sleep(time.Millisecond)
	}

	ctx := context.Background()
	b.ResetTimer()
	var total time.Duration
	for i := 0; i < b.N; i++ {
		start := time.Now()
		j, err := s.Submit(JobSpec{Workload: name, Instructions: uint64(2_000_000 + i)})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := j.Wait(ctx); err != nil {
			b.Fatal(err)
		}
		total += time.Since(start)
	}
	b.StopTimer()
	close(stop)
	<-done
	b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), "interactive-ns/op")
}

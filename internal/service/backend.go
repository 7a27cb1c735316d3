package service

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"

	"constable/internal/sim"
	"constable/internal/workload"
)

// ErrBackendUnavailable marks an execution failure that is the backend's
// fault rather than the job's: the remote worker died mid-request, returned
// a malformed or aliased result envelope, or no healthy backend exists at
// all. The scheduler reacts by requeuing the job for another backend
// (respecting Abandon refcounts) instead of failing it, and the MultiBackend
// reacts by marking the offending worker unhealthy. Simulation failures —
// the spec itself is broken, or the model faulted — are ordinary errors and
// terminal for the job on any backend.
var ErrBackendUnavailable = errors.New("service: backend unavailable")

// BatchResult is one cell's outcome within an ExecuteBatch chunk. Err nil
// means Result is the cell's finished document; an Err wrapping
// ErrBackendUnavailable means this cell never completed anywhere and should
// be retried on another backend; any other Err is the cell's own terminal
// failure. Per-cell granularity is the point: one failing cell must not
// drag its chunk siblings down with it.
type BatchResult struct {
	Result *sim.RunResult
	Err    error
	// CacheHit marks a cell that never reached a backend because its result
	// already existed cluster-wide at dispatch time (another worker wrote it
	// back, or a peer process sharing the data-dir saved it, after this cell
	// was submitted). The scheduler finishes such a cell as a cache hit and
	// excludes it from the executed/simulated accounting.
	CacheHit bool
}

// Backend executes canonical JobSpecs. It is the scheduler's run-a-JobSpec
// seam: LocalBackend simulates in-process, RemoteBackend dispatches chunks
// of jobs over HTTP to a constable-worker, and MultiBackend composes a
// local pool with any number of registered remote workers under
// capacity-aware dispatch. The scheduler owns queueing, dedup, caching and
// persistence; backends only turn specs into results.
type Backend interface {
	// Name identifies the backend in logs, metrics and worker listings.
	Name() string
	// Capacity is the number of jobs the backend can execute concurrently.
	// The scheduler dispatches at most Capacity jobs at a time; a capacity
	// of zero parks the queue until capacity appears (e.g. a remote worker
	// registers).
	Capacity() int
	// Execute runs one canonical spec to completion and returns its result.
	// hash is the spec's content hash, forwarded so remote backends can
	// verify the result envelope they get back (alias defense). An error
	// wrapping ErrBackendUnavailable means the job never completed anywhere
	// and should be retried on another backend; any other error is the
	// job's own terminal failure.
	Execute(ctx context.Context, spec JobSpec, hash string) (*sim.RunResult, error)
	// ExecuteBatch runs a chunk of specs (hashes[i] belonging to specs[i])
	// and reports each cell's outcome individually, so one failing cell
	// does not requeue its siblings. The returned slice is index-aligned
	// with specs. A non-nil error means the whole chunk failed in one
	// stroke — the dispatch never reached the backend, or the transport
	// died mid-exchange with no per-cell attribution — and the results
	// slice is meaningless; the caller treats every cell as having failed
	// with that error.
	ExecuteBatch(ctx context.Context, specs []JobSpec, hashes []string) ([]BatchResult, error)
}

// ExecuteRequest is the body of the server→worker POST /execute call: the
// canonical spec to run plus its content hash, which the worker re-derives
// and verifies before simulating so a corrupted dispatch can never produce
// a result filed under the wrong key.
type ExecuteRequest struct {
	Hash string  `json:"hash"`
	Spec JobSpec `json:"spec"`
}

// BatchExecuteRequest is the body of the server→worker POST /execute/batch
// call: a chunk of cells, each carrying the same spec+hash pair a single
// /execute dispatch would. The worker runs the chunk through its private
// scheduler (bounded concurrency, worker-local dedup and LRU) and answers
// item-for-item.
type BatchExecuteRequest struct {
	Items []ExecuteRequest `json:"items"`
}

// BatchExecuteItem is one cell's outcome in a BatchExecuteResponse. Exactly
// one of Envelope (the cell finished; the envelope is hash-verified by the
// server before acceptance) or Error is set. Requeue distinguishes the two
// failure classes the single-dispatch protocol expresses as 503 vs 422:
// true means the failure is the worker's condition (draining for shutdown,
// pool canceled, corrupted dispatch) and the server should run the cell
// elsewhere; false means the simulation itself failed and retrying would
// only fail the same way.
type BatchExecuteItem struct {
	Envelope *sim.ResultEnvelope `json:"envelope,omitempty"`
	Error    string              `json:"error,omitempty"`
	Requeue  bool                `json:"requeue,omitempty"`
}

// BatchExecuteResponse answers a BatchExecuteRequest, index-aligned with
// its items.
type BatchExecuteResponse struct {
	Items []BatchExecuteItem `json:"items"`
}

// workloadResolverSetter is implemented by backends that resolve workload
// names themselves (LocalBackend) so the owning scheduler can teach them
// about trace-backed workloads. Remote backends don't need it: the worker's
// own scheduler resolves on its side.
type workloadResolverSetter interface {
	setWorkloadResolver(WorkloadResolver)
}

// LocalBackend executes jobs in-process on the scheduler's own machine.
type LocalBackend struct {
	name     string
	capacity int
	// run executes one simulation (sim.Run in production; tests substitute
	// a stub through the scheduler's runFn indirection).
	run func(sim.Options) (*sim.RunResult, error)
	// resolve maps workload names to Specs (workload.ByName when nil). The
	// owning scheduler installs its trace-aware resolver at Open, before
	// dispatch starts.
	resolve WorkloadResolver
}

func (l *LocalBackend) setWorkloadResolver(r WorkloadResolver) { l.resolve = r }

// NewLocalBackend returns an in-process backend running up to capacity
// concurrent simulations through run (sim.Run when nil). A capacity ≤ 0
// yields a backend that accepts no work — useful for a pure dispatcher
// server whose cells must all execute on remote workers.
func NewLocalBackend(capacity int, run func(sim.Options) (*sim.RunResult, error)) *LocalBackend {
	if run == nil {
		run = sim.Run
	}
	if capacity < 0 {
		capacity = 0
	}
	return &LocalBackend{name: "local", capacity: capacity, run: run}
}

// Name implements Backend.
func (l *LocalBackend) Name() string { return l.name }

// Capacity implements Backend.
func (l *LocalBackend) Capacity() int { return l.capacity }

// Execute implements Backend by resolving the spec and simulating it on the
// calling goroutine. Local execution failures are always the job's own
// (never ErrBackendUnavailable): the process that would retry the job is
// the same one that just failed it. A panic in the simulator becomes the
// cell's error, stack included, so one bad spec cannot kill the process.
func (l *LocalBackend) Execute(ctx context.Context, spec JobSpec, hash string) (res *sim.RunResult, err error) {
	resolve := l.resolve
	if resolve == nil {
		resolve = workload.ByName
	}
	opts, err := spec.ToOptionsWith(resolve)
	if err != nil {
		return nil, err
	}
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("service: simulation panicked: %v\n%s", r, debug.Stack())
		}
	}()
	return l.run(opts)
}

// ExecuteBatch implements Backend by simulating the chunk's cells
// concurrently — the dispatcher only hands the local pool a chunk as large
// as the number of slots it reserved, so each cell gets its own goroutine
// without oversubscribing the pool. Like Execute, local failures are
// always the cell's own.
func (l *LocalBackend) ExecuteBatch(ctx context.Context, specs []JobSpec, hashes []string) ([]BatchResult, error) {
	out := make([]BatchResult, len(specs))
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := l.Execute(ctx, specs[i], hashes[i])
			out[i] = BatchResult{Result: res, Err: err}
		}(i)
	}
	wg.Wait()
	return out, nil
}

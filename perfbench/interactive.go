package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sync"
	"time"

	"constable/internal/service"
	"constable/internal/sim"
)

// interactive-rw: an open loop of POST /v1/runs?wait=1 at a fixed rate
// against one fresh server (-workers 2, fresh data dir). Reads come from a
// seeded hot pool, warmed untimed, that is twice the server's LRU, so they
// split between LRU hits and disk-store hits; every tenth request is a
// fresh short cell that simulates and writes the store.

const (
	interactiveRate  = 160.0 // requests per second
	interactiveConns = 2
	setupProbes      = 9    // server launches timed per run for setup_s
	mixTolerance     = 0.05 // allowed |measured − predicted| LRU share of reads
)

// runClient posts specs to POST /v1/runs?wait=1 and checks the answers.
type runClient struct {
	base   string
	client *http.Client
}

func newRunClient(base string, conns int) *runClient {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = conns
	tr.MaxConnsPerHost = conns
	return &runClient{base: base, client: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

// jobAnswer is the part of a POST /v1/runs answer the checks read; the
// result document stays raw unless the answer is sampled for
// re-simulation, which keeps the generator's own CPU and GC load low.
type jobAnswer struct {
	ID       string            `json:"id"`
	Hash     string            `json:"hash"`
	Status   service.JobStatus `json:"status"`
	CacheHit bool              `json:"cache_hit"`
	Error    string            `json:"error"`
	Result   json.RawMessage   `json:"result"`
}

// post submits c and waits for its answer, checking status and hash, and
// that a read was served from a cache tier (wantHit) or a write simulated.
// With keep it also returns the decoded result.
func (rc *runClient) post(ctx context.Context, c cell, wantHit, keep bool) (*sim.RunResult, error) {
	body, err := json.Marshal(c.Spec)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rc.base+"/v1/runs?wait=1", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := rc.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST /v1/runs: %s: %s", resp.Status, b)
	}
	var v jobAnswer
	if err := json.Unmarshal(b, &v); err != nil {
		return nil, err
	}
	switch {
	case v.Status != service.StatusDone || len(v.Result) == 0:
		return nil, fmt.Errorf("run %s ended %s: %s", v.ID, v.Status, v.Error)
	case v.Hash != c.Hash:
		return nil, fmt.Errorf("run %s: hash %s, want %s", v.ID, v.Hash, c.Hash)
	case v.CacheHit != wantHit:
		return nil, fmt.Errorf("run %s: cache_hit %v, want %v", v.ID, v.CacheHit, wantHit)
	case !keep:
		return nil, nil
	}
	var res sim.RunResult
	if err := json.Unmarshal(v.Result, &res); err != nil {
		return nil, fmt.Errorf("run %s: result: %w", v.ID, err)
	}
	return &res, nil
}

// warm submits every cell once over conns connections, in order.
func (rc *runClient) warm(ctx context.Context, cells []cell, conns int) error {
	var wg sync.WaitGroup
	errs := make([]error, len(cells))
	next := make(chan int)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				_, errs[i] = rc.post(ctx, cells[i], false, false)
			}
		}()
	}
	for i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// interactiveOutcome is one open-loop run's client-side view.
type interactiveOutcome struct {
	reads, writes   []float64 // ms from due to answer
	late            []float64 // ms from due to hand-off
	wall            time.Duration
	errs            []error
	sampled         []checkItem
	readN, writeN   int
	writeInstr      float64
	predictedLRUHit int
}

// driveInteractive runs the schedule against base and checks every answer.
func driveInteractive(ctx context.Context, rc *runClient, sched []request, sampleSeed int64) interactiveOutcome {
	var out interactiveOutcome
	dues := make([]time.Duration, len(sched))
	for i, r := range sched {
		dues[i] = time.Duration(r.Due * float64(time.Second))
	}
	sampled := make(map[int]bool)
	for _, i := range sampleIdx(len(sched), sampleSeed, 6) {
		sampled[i] = true
	}
	results := make([]*sim.RunResult, len(sched))
	start := time.Now()
	lr := openLoop(ctx, dues, interactiveConns, func(ctx context.Context, i int) error {
		var err error
		results[i], err = rc.post(ctx, sched[i].Cell, !sched[i].Write, sampled[i])
		return err
	})
	out.wall = time.Since(start)
	for i, r := range sched {
		if err := lr.errs[i]; err != nil {
			out.errs = append(out.errs, err)
			continue
		}
		l := ms(lr.latency[i])
		if r.Write {
			out.writes = append(out.writes, l)
			out.writeInstr += float64(r.Cell.Spec.Instructions)
		} else {
			out.reads = append(out.reads, l)
		}
		out.late = append(out.late, ms(lr.late[i]))
	}
	for _, r := range sched {
		if r.Write {
			out.writeN++
		} else {
			out.readN++
		}
	}
	for i, r := range results {
		if r != nil {
			out.sampled = append(out.sampled, checkItem{cell: sched[i].Cell, got: r})
		}
	}
	return out
}

// interactiveHygiene checks the server-side view of the open loop: every
// read hit the LRU or the store, in the designed split, and exactly the
// writes simulated. A read that arrives while an identical read is still
// loading from the store joins that job instead (a dedup), so dedups count
// with the hits.
func interactiveHygiene(before, after map[string]float64, o interactiveOutcome) (lruShare float64, err error) {
	d := func(k string) float64 { return after[k] - before[k] }
	lru, store, dedup := d("cache_hits_total"), d("store_hits_total"), d("jobs_deduped_total")
	lruShare = lru / float64(o.readN)
	predicted := float64(o.predictedLRUHit) / float64(o.readN)
	switch {
	case lru+store+dedup != float64(o.readN):
		return lruShare, fmt.Errorf("cache hygiene: %v LRU + %v store hits + %v dedups for %d reads", lru, store, dedup, o.readN)
	case d("jobs_executed_total") != float64(o.writeN):
		return lruShare, fmt.Errorf("cache hygiene: %v jobs executed for %d writes", d("jobs_executed_total"), o.writeN)
	case math.Abs(lruShare-predicted) > mixTolerance:
		return lruShare, fmt.Errorf("cache hygiene: LRU share of reads %.3f, designed %.3f", lruShare, predicted)
	}
	return lruShare, nil
}

func runInteractive(e *env) (*result, error) {
	sp, err := newSpace(e.seed)
	if err != nil {
		return nil, err
	}
	res := newResult()
	serverFlags := func(dir string) []string {
		return []string{"-workers", "2", "-cache", fmt.Sprint(lruEntries), "-data-dir", dir}
	}

	// setup_s: launch the server several times; keep the last one.
	var setup []float64
	var srv *proc
	var base, dir string
	for i := 0; i < setupProbes; i++ {
		if srv != nil {
			srv.stop()
			os.RemoveAll(dir)
		}
		if dir, err = mkRunDir(e.root, "interactive-"); err != nil {
			return nil, err
		}
		if srv, base, err = startServer(e.bin.server, serverFlags(dir)...); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(srv.start).Seconds())
	}
	defer os.RemoveAll(dir)
	defer srv.stop()

	ctx := context.Background()
	rc := newRunClient(base, interactiveConns)
	hot := sp.hotPool()
	warmStart := time.Now()
	if err := rc.warm(ctx, hot, interactiveConns); err != nil {
		return nil, err
	}
	warmup := time.Since(warmStart)

	n := int(interactiveRate * e.seconds.Seconds())
	sched := interactiveSchedule(sp, e.seed, interactiveRate, n)
	// The warm-up executed every hot cell; wait for the counter to say so,
	// or its lag would be charged to the open loop.
	before, err := settledMetrics(func() (map[string]float64, error) { return scrapeMetrics(base) },
		func(m map[string]float64) bool { return m["jobs_executed_total"] >= float64(len(hot)) })
	if err != nil {
		return nil, err
	}
	cpu0, err := srv.liveCPU()
	if err != nil {
		return nil, err
	}
	o := driveInteractive(ctx, rc, sched, e.seed)
	o.predictedLRUHit = predictLRUHits(hot, sched, lruEntries)
	cpu1, err := srv.liveCPU()
	if err != nil {
		return nil, err
	}
	after, err := settledMetrics(func() (map[string]float64, error) { return scrapeMetrics(base) },
		func(m map[string]float64) bool {
			return m["jobs_executed_total"]-before["jobs_executed_total"] >= float64(o.writeN)
		})
	if err != nil {
		return nil, err
	}
	srv.stop()

	res.Attempted = len(sched)
	for _, err := range o.errs {
		res.fail(err)
	}
	lruShare, err := interactiveHygiene(before, after, o)
	if err != nil {
		res.invalid(err)
	}
	for _, ci := range o.sampled {
		if err := ci.verify(); err != nil {
			res.fail(err)
		}
	}
	answered := float64(len(o.reads) + len(o.writes))
	res.set("setup_s", median(setup), "s")
	res.set("cells_per_s", answered/o.wall.Seconds(), "1/s")
	res.set("sim_minst_per_s", o.writeInstr/1e6/o.wall.Seconds(), "Minst/s")
	res.set("cpu_ms_per_cell", ms(cpu1-cpu0)/answered, "ms")
	res.set("peak_rss_mb", srv.maxRSSMB(), "MB")
	res.set("read_latency_p50_ms", percentile(o.reads, 0.50), "ms")
	res.set("read_latency_p99_ms", percentile(o.reads, 0.99), "ms")
	res.set("write_latency_p50_ms", percentile(o.writes, 0.50), "ms")
	res.set("write_latency_p90_ms", percentile(o.writes, 0.90), "ms")
	res.note("interactive-rw: %d reads, %d writes at %.0f/s over %d conns; LRU share of reads %.3f (designed %.3f); generator late p99 %.3f ms; warm-up %.2f s",
		len(o.reads), len(o.writes), interactiveRate, interactiveConns, lruShare,
		float64(o.predictedLRUHit)/float64(o.readN), percentile(o.late, 0.99), warmup.Seconds())
	return res, nil
}

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"time"

	"constable/internal/service"
)

// sweep-short: a cold cluster per sweep — a dispatch-only server with a
// fresh data dir and one worker (capacity 2, default result sharing) — and
// one POST /v1/sweeps of distinct short cells, followed on the NDJSON
// event stream. Sweeps repeat on fresh clusters until the time is up.

const workerCapacity = 2

// cluster is one running server + worker pair.
type cluster struct {
	server, worker *proc
	base, dataDir  string
	setup          time.Duration
}

// startCluster launches the server, then the worker, and returns once the
// server lists the worker as healthy. setup runs from the server's launch.
func startCluster(e *env) (*cluster, error) {
	dir, err := mkRunDir(e.root, "sweep-")
	if err != nil {
		return nil, err
	}
	srv, base, err := startServer(e.bin.server, "-workers", "-1", "-data-dir", dir)
	if err != nil {
		return nil, err
	}
	c := &cluster{server: srv, base: base, dataDir: dir}
	// The worker's two slots share one CPU (GOMAXPROCS=1). With two, the
	// worker, the server and the harness overfill a 2-vCPU host, and the
	// sweep's wall time also measures how much CPU the host granted: over
	// five seeds the spread of cells_per_s was 10% that way, against 5.5%.
	c.worker, err = startProc(e.bin.worker, nil, []string{"GOMAXPROCS=1"}, "-server", base, "-addr", "127.0.0.1:0",
		"-capacity", fmt.Sprint(workerCapacity), "-name", "bench-worker")
	if err != nil {
		srv.stop()
		return nil, err
	}
	if err := waitFor(c.worker, 30*time.Second, func() bool { return workersRegistered(base) == 1 }); err != nil {
		c.stop()
		return nil, err
	}
	c.setup = time.Since(srv.start)
	return c, nil
}

// stop shuts the worker down first (it deregisters and drains its
// write-backs), then the server, and removes the data dir.
func (c *cluster) stop() {
	if c.worker != nil {
		c.worker.stop()
	}
	c.server.stop()
	os.RemoveAll(c.dataDir)
}

// sweepRequest lays cells out as matrix rows of sweepRowLen.
func sweepRequest(cells []cell) service.SweepRequest {
	var req service.SweepRequest
	for i := 0; i < len(cells); i += sweepRowLen {
		row := make([]service.JobSpec, 0, sweepRowLen)
		for _, c := range cells[i:min(i+sweepRowLen, len(cells))] {
			row = append(row, c.Spec)
		}
		req.Specs = append(req.Specs, row)
	}
	return req
}

// sweepOutcome is what one sweep produced, as seen by its client.
type sweepOutcome struct {
	wall      time.Duration
	latencies []float64 // ms from submit to each cell's event
	jobIDs    []string  // by cell index
	failed    int
}

// runSweep submits cells as one sweep and follows its event stream,
// checking every cell's status and hash.
func runSweep(base string, cells []cell) (sweepOutcome, error) {
	var out sweepOutcome
	body, err := json.Marshal(sweepRequest(cells))
	if err != nil {
		return out, err
	}
	start := time.Now()
	resp, err := httpc.Post(base+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	var view service.SweepView
	err = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return out, fmt.Errorf("submit sweep: %s: %v", resp.Status, err)
	}
	ev, err := httpc.Get(base + "/v1/sweeps/" + view.ID + "/events")
	if err != nil {
		return out, err
	}
	defer ev.Body.Close()
	out.jobIDs = make([]string, len(cells))
	seen := 0
	var final *service.SweepView
	sc := bufio.NewScanner(ev.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		var line struct {
			Cell  *service.SweepEvent `json:"cell"`
			Sweep *service.SweepView  `json:"sweep"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return out, fmt.Errorf("event stream: %w", err)
		}
		if line.Sweep != nil {
			final = line.Sweep
			break
		}
		c := line.Cell
		if c == nil {
			continue
		}
		out.latencies = append(out.latencies, ms(time.Since(start)))
		i := c.Row*sweepRowLen + c.Col
		switch {
		case i < 0 || i >= len(cells):
			return out, fmt.Errorf("event for unknown cell (%d,%d)", c.Row, c.Col)
		case c.Status != service.StatusDone:
			out.failed++
		case c.Hash != cells[i].Hash:
			out.failed++
		default:
			out.jobIDs[i] = c.JobID
			seen++
		}
	}
	out.wall = time.Since(start)
	if err := sc.Err(); err != nil {
		return out, err
	}
	if final == nil || final.Status != service.SweepDone || final.Completed != len(cells) {
		return out, fmt.Errorf("sweep ended as %+v after %d good cells", final, seen)
	}
	return out, nil
}

// sweepHygiene checks that the sweep was simulated cold: every cell
// executed and nothing answered from the LRU, the store or the share.
func sweepHygiene(m map[string]float64, cells int) error {
	if m["jobs_executed_total"] != float64(cells) || m["cache_hits_total"] != 0 ||
		m["store_hits_total"] != 0 || m["store_remote_hits_total"] != 0 {
		return fmt.Errorf("cache hygiene: executed %v of %d cells, LRU hits %v, store hits %v, share hits %v",
			m["jobs_executed_total"], cells, m["cache_hits_total"], m["store_hits_total"], m["store_remote_hits_total"])
	}
	return nil
}

func runSweepShort(e *env) (*result, error) {
	sp, err := newSpace(e.seed)
	if err != nil {
		return nil, err
	}
	res := newResult()
	var setup, cellsPS, minst, cpuPerCell, rss, lat50 []float64
	var checked []checkItem
	deadline := time.Now().Add(e.seconds)
	for k := 0; k == 0 || time.Now().Before(deadline); k++ {
		if k >= maxSweeps {
			break
		}
		cells := sp.sweep(k)
		res.Attempted += len(cells)
		c, err := startCluster(e)
		if err != nil {
			return nil, err
		}
		out, err := runSweep(c.base, cells)
		if err != nil {
			// The sweep broke as a whole: none of its cells count as done.
			c.stop()
			res.fail(err)
			res.Failed += len(cells) - 1
			continue
		}
		for i := 0; i < out.failed; i++ {
			res.fail(fmt.Errorf("sweep %d: a cell failed or carried a wrong hash", k))
		}
		m, err := settledMetrics(func() (map[string]float64, error) { return scrapeMetrics(c.base) },
			func(m map[string]float64) bool { return m["jobs_executed_total"] >= float64(len(cells)) })
		if err == nil {
			err = sweepHygiene(m, len(cells))
		}
		if err != nil {
			res.invalid(err)
		}
		// Fetch a seeded sample of results for re-simulation, untimed.
		for _, i := range sampleIdx(len(cells), e.seed+int64(k), 2) {
			checked = append(checked, checkItem{cell: cells[i], url: c.base + "/v1/runs/" + out.jobIDs[i] + "/result"})
			if err := checked[len(checked)-1].fetch(); err != nil {
				res.fail(err)
			}
		}
		c.stop()

		var instr float64
		for _, cl := range cells {
			instr += float64(cl.Spec.Instructions)
		}
		setup = append(setup, c.setup.Seconds())
		cellsPS = append(cellsPS, float64(len(cells))/out.wall.Seconds())
		minst = append(minst, instr/1e6/out.wall.Seconds())
		cpuPerCell = append(cpuPerCell, ms(c.server.cpu()+c.worker.cpu())/float64(len(cells)))
		rss = append(rss, c.server.maxRSSMB()+c.worker.maxRSSMB())
		lat50 = append(lat50, percentile(out.latencies, 0.50))
	}
	for _, ci := range checked {
		if err := ci.verify(); err != nil {
			res.fail(err)
		}
	}
	if len(setup) == 0 {
		return res, nil
	}
	res.set("setup_s", median(setup), "s")
	res.set("cells_per_s", median(cellsPS), "1/s")
	res.set("sim_minst_per_s", median(minst), "Minst/s")
	res.set("cpu_ms_per_cell", median(cpuPerCell), "ms")
	res.set("peak_rss_mb", median(rss), "MB")
	// Like the other metrics, the latency is a median over the run's
	// sweeps: the time by which half of a sweep's cells were done.
	res.set("latency_p50_ms", median(lat50), "ms")
	res.note("sweep-short: %d sweeps of %d cells, cells/s %s, p50 ms %s, %d results re-simulated", len(setup), sweepCells, fmtList(cellsPS), fmtList(lat50), len(checked))
	return res, nil
}

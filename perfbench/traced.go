package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"constable/internal/cache"
	"constable/internal/constable"
	"constable/internal/experiments"
	"constable/internal/inspector"
	"constable/internal/isa"
	"constable/internal/pipeline"
	"constable/internal/service"
	"constable/internal/sim"
	"constable/internal/workload"
)

// The traced run: one process, the workload's seed and cells, every layer
// called in-process behind spans. It reports the per-layer metrics; the
// end-to-end metrics come from the untraced run. Phases, in order:
//
//  1. the fig11 driver in-process (experiments.Runner), first, while the
//     process is fresh and the pre-pass memo is empty;
//  2. the layer rungs over a sample of the workload's cells: build, fsim
//     stream, pre-pass, sim.Run, and the same cell replayed piecewise
//     (attachments, hierarchy, core, pipeline fed by the recorded stream);
//  3. the workload's sweep through an in-process server and worker, once
//     untraced and once traced (their difference is the tracing overhead);
//  4. a short interactive open loop against an in-process server.

const (
	layerSample        = 40 // short cells run through the layer rungs
	tracedOpenLoopSecs = 4  // length of the traced interactive phase
)

// fig11Column is one mechanism column of fig11, named as in the per-layer
// metric names.
type fig11Column struct {
	label string
	mech  sim.Mechanism
}

var fig11Columns = []fig11Column{
	{"baseline", sim.Mechanism{}},
	{"eves", sim.Mechanism{EVES: true}},
	{"constable", sim.Mechanism{Constable: true}},
	{"eves-constable", sim.Mechanism{EVES: true, Constable: true}},
	{"eves-ideal", sim.Mechanism{EVES: true, IdealConstable: true}},
}

func runTraced(e *env, name string) (*result, error) {
	sp, err := newSpace(e.seed)
	if err != nil {
		return nil, err
	}
	var layerCells, sweepCellsT, hashCells []cell
	switch name {
	case "fig11-cold":
		if layerCells, err = fig11Specs(); err != nil {
			return nil, err
		}
		sweepCellsT, hashCells = layerCells, layerCells
	case "sweep-short":
		sweepCellsT = sp.sweep(0)
		hashCells = sweepCellsT
		layerCells = pick(sweepCellsT, e.seed, layerSample)
	case "interactive-rw":
		sweepCellsT = sp.hotPool()
		hashCells = append(append([]cell(nil), sweepCellsT...), sp.writes(maxWrites)...)
		layerCells = pick(sweepCellsT, e.seed, layerSample)
	}
	tr := newTracer()
	res := newResult()

	tracedDriver(e, tr, res)
	if err := tracedLayers(tr, res, layerCells); err != nil {
		return nil, err
	}
	tracedHash(tr, res, hashCells)
	tracedCluster(e, tr, res, sweepCellsT)
	if err := tracedInteractive(e, tr, res, sp); err != nil {
		return nil, err
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	res.set("go.gc_cpu_frac", mem.GCCPUFraction, "frac")

	path, err := writeSpans(e.root, fmt.Sprintf("%s-seed%d", name, e.seed), tr.snapshot())
	if err != nil {
		return nil, err
	}
	res.note("traced %s: %d spans written to %s", name, len(tr.snapshot()), path)
	return res, nil
}

// pick returns a seeded sample of k cells.
func pick(cs []cell, seed int64, k int) []cell {
	var out []cell
	for _, i := range sampleIdx(len(cs), seed, k) {
		out = append(out, cs[i])
	}
	return out
}

// tracedDriver runs `experiments -run fig11` in-process and checks both its
// table and that it simulated every cell cold.
func tracedDriver(e *env, tr *tracer, res *result) {
	res.Attempted += fig11Cells
	want, err := fig11Recorded(e.root)
	if err != nil {
		res.fail(err)
		return
	}
	var buf bytes.Buffer
	r := experiments.NewRunner(experiments.Config{Instructions: fig11Instructions, Out: &buf})
	d := tr.timed("experiments.run", "fig11", -1, func() { err = r.Run("fig11") })
	if err != nil {
		res.fail(err)
		return
	}
	if !bytes.Equal(fig11Artifact(buf.Bytes()), fig11Artifact(want)) {
		res.fail(fmt.Errorf("in-process fig11 table differs from the recorded one:\n%s", buf.Bytes()))
	}
	// Every submitted cell must have been simulated: none deduplicated or
	// answered by the LRU, the store or the share. The LRU's own hit
	// counter is not the guard here: the driver's sweep subscriber may
	// re-read an already simulated cell's result from the LRU once the
	// sweep has finalized, which counts as a hit without serving a cell.
	m := service.Default().Metrics()
	if m.JobsSubmitted != fig11Cells || m.JobsExecuted != fig11Cells || m.JobsDeduped != 0 ||
		m.StoreHits != 0 || m.StoreRemoteHits != 0 {
		res.invalid(fmt.Errorf("cache hygiene: fig11 submitted %d, executed %d of %d cells, deduped %d, store hits %d, share hits %d",
			m.JobsSubmitted, m.JobsExecuted, fig11Cells, m.JobsDeduped, m.StoreHits, m.StoreRemoteHits))
	}
	res.note("in-process fig11: %d cells simulated; %d result re-reads from the LRU by the sweep subscriber", m.JobsExecuted, m.CacheHits)
	res.set("experiments.run_ms", ms(d), "ms")
	res.set("service.cells_executed", float64(m.JobsExecuted), "count")
}

// tracedHash times JobSpec canonicalization and hashing, as the scheduler
// does them on every submission.
func tracedHash(tr *tracer, res *result, cells []cell) {
	var total time.Duration
	for _, c := range cells {
		total += tr.timed("jobspec.hash", c.Hash, -1, func() {
			if cs, err := c.Spec.Canonical(); err != nil {
				res.fail(err)
			} else if h, err := cs.Hash(); err != nil || h != c.Hash {
				res.fail(fmt.Errorf("jobspec hash of %s changed: %s %v", c.Hash[:12], h, err))
			}
		})
	}
	res.set("jobspec.hash_us", float64(total)/float64(time.Microsecond)/float64(len(cells)), "us")
}

// recordedStream replays a pre-recorded functional stream.
type recordedStream struct {
	insts []isa.DynInst
	i     int
}

func (s *recordedStream) Next() (isa.DynInst, bool) {
	if s.i >= len(s.insts) {
		return isa.DynInst{}, false
	}
	s.i++
	return s.insts[s.i-1], true
}

// replayOut is one piecewise replay of a cell.
type replayOut struct {
	attach, hier, coreNew, run time.Duration
	hierBytes                  uint64
	cycles, eliminated         uint64
}

// replay builds a cell's mechanism, hierarchy and core the way sim.Run
// does, and runs the pipeline fed by the recorded stream, each step in its
// own span.
func replay(tr *tracer, parent int, id, label string, mech sim.Mechanism, n uint64, insts []isa.DynInst, stable map[uint64]bool) (replayOut, error) {
	var out replayOut
	var att pipeline.Attachments
	var cons *constable.Constable
	var err error
	out.attach = tr.timed("sim.attachments_new", id, parent, func() { att, cons, _, err = mech.NewAttachments() })
	if err != nil {
		return out, err
	}
	if mech.NeedsStableAnalysis() {
		att.StablePCs = stable
		if mech.IdealConstable {
			att.IdealElimPCs = stable
		}
		if mech.IdealStableLVP {
			att.IdealLVPPCs = stable
			att.IdealDataFetchElim = mech.IdealDataFetchElim
		}
	}
	var hier *cache.Hierarchy
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	out.hier = tr.timed("cache.hierarchy_new", id, parent, func() { hier = cache.NewHierarchy(cache.DefaultHierarchyConfig()) })
	runtime.ReadMemStats(&m1)
	out.hierBytes = m1.TotalAlloc - m0.TotalAlloc
	cfg := pipeline.DefaultConfig()
	cfg.Threads = 1
	var core *pipeline.Core
	out.coreNew = tr.timed("pipeline.core_new", id, parent, func() {
		core = pipeline.NewCore(cfg, att, hier, &recordedStream{insts: insts})
	})
	maxCycles := max(n*20, 1_000_000) // sim.Run's cycle bound
	out.run = tr.timed("pipeline.run."+label, id, parent, func() { err = core.Run(maxCycles) })
	out.cycles = core.Stats.Cycles
	if cons != nil {
		out.eliminated = cons.Stats.Eliminated
	}
	return out, err
}

// streamKey identifies one functional stream: a workload at a budget.
type streamKey struct {
	workload string
	n        uint64
}

// recorded is one stream recorded once and shared by every replay of it.
type recorded struct {
	insts  []isa.DynInst
	stable map[uint64]bool
	stream time.Duration
}

// drain runs a workload's functional stream of n instructions to its end,
// handing each instruction to keep when it is non-nil.
func drain(spec *workload.Spec, n uint64, keep func(isa.DynInst)) (uint64, error) {
	st, err := spec.NewStream(false, n)
	if err != nil {
		return 0, err
	}
	var count uint64
	for {
		d, ok := st.Next()
		if !ok {
			break
		}
		count++
		if keep != nil {
			keep(d)
		}
	}
	return count, st.Err()
}

// tracedLayers runs the layer rungs over cells.
func tracedLayers(tr *tracer, res *result, cells []cell) error {
	// Record each distinct stream once: build, fsim stream, pre-pass.
	streams := make(map[streamKey]*recorded)
	var order []streamKey
	var build, stream, prepass []float64
	var streamInstr float64
	var streamTime time.Duration
	for _, c := range cells {
		k := streamKey{c.Spec.Workload, c.Spec.Instructions}
		if streams[k] != nil {
			continue
		}
		id := fmt.Sprintf("%s/%d", k.workload, k.n)
		spec, err := workload.ByName(k.workload)
		if err != nil {
			return err
		}
		rec := &recorded{}
		root := tr.start("layer.stream", id, -1)
		build = append(build, ms(tr.timed("workload.build", id, root, func() { _, err = spec.Build(false) })))
		if err != nil {
			return err
		}
		var drained uint64
		rec.stream = tr.timed("fsim.stream", id, root, func() { drained, err = drain(spec, k.n, nil) })
		if err != nil {
			return err
		}
		// Record the same stream again, untimed, for the replays.
		rec.insts = make([]isa.DynInst, 0, drained)
		if _, err := drain(spec, k.n, func(d isa.DynInst) { rec.insts = append(rec.insts, d) }); err != nil {
			return err
		}
		stream = append(stream, ms(rec.stream))
		streamTime += rec.stream
		streamInstr += float64(drained)
		prepass = append(prepass, ms(tr.timed("inspector.prepass", id, root, func() {
			ins := inspector.New()
			for i := range rec.insts {
				ins.Observe(&rec.insts[i])
			}
			rec.stable = ins.StableLoadPCs()
		})))
		tr.end(root, nil)
		streams[k] = rec
		order = append(order, k)
	}

	// Each cell whole through sim.Run, then replayed piecewise. The replay
	// must be cycle-identical, or the decomposition measures something else.
	var runMS, selfMS, attach, hier, coreNew, hierBytes []float64
	var allocs, allocBytes, cycles, l1d, llc uint64
	var runTime time.Duration
	for _, c := range cells {
		opts, err := c.Spec.ToOptions()
		if err != nil {
			return err
		}
		var r *sim.RunResult
		var m0, m1 runtime.MemStats
		root := tr.start("layer.cell", c.Hash, -1)
		runtime.ReadMemStats(&m0)
		d := tr.timed("sim.run", c.Hash, root, func() { r, err = sim.Run(opts) })
		runtime.ReadMemStats(&m1)
		if err != nil {
			tr.end(root, nil)
			res.fail(err)
			continue
		}
		allocs += m1.Mallocs - m0.Mallocs
		allocBytes += m1.TotalAlloc - m0.TotalAlloc
		cycles += r.Cycles
		l1d += r.Counters["mem.l1d_accesses"]
		llc += r.Counters["mem.llc_accesses"]
		runTime += d
		runMS = append(runMS, ms(d))

		rec := streams[streamKey{c.Spec.Workload, c.Spec.Instructions}]
		rp, err := replay(tr, root, c.Hash, "cell", opts.Mech, opts.Instructions, rec.insts, rec.stable)
		tr.end(root, nil)
		if err == nil && rp.cycles != r.Cycles {
			err = fmt.Errorf("replay of %s took %d cycles, sim.Run %d", c.Hash[:12], rp.cycles, r.Cycles)
		}
		if err != nil {
			res.invalid(err)
			continue
		}
		// The pre-pass is not among the children: oracle cells find it in
		// sim's per-process memo, which the in-process fig11 driver filled.
		children := rec.stream + rp.attach + rp.hier + rp.coreNew + rp.run
		selfMS = append(selfMS, ms(d-children))
		attach = append(attach, ms(rp.attach))
		hier = append(hier, ms(rp.hier))
		coreNew = append(coreNew, ms(rp.coreNew))
		hierBytes = append(hierBytes, float64(rp.hierBytes))
	}
	res.Attempted += len(cells)

	// The pipeline alone, per fig11 column, on every recorded stream.
	colNS := make([]float64, len(fig11Columns))
	colCycles := make([]float64, len(fig11Columns))
	var eliminated uint64
	// An untimed warm-up replay goes first, and the column order rotates
	// from stream to stream, so no column always runs first. Short streams
	// are replayed several times and the fastest replay counts, so a
	// millisecond of interference does not swamp the per-cycle rates.
	for si, k := range order {
		reps := max(1, int(20_000/k.n))
		rec := streams[k]
		id := fmt.Sprintf("%s/%d", k.workload, k.n)
		if _, err := replay(nil, -1, id, "warmup", sim.Mechanism{}, k.n, rec.insts, rec.stable); err != nil {
			res.invalid(err)
			continue
		}
		root := tr.start("layer.columns", id, -1)
		for j := range fig11Columns {
			ci := (si + j) % len(fig11Columns)
			col := fig11Columns[ci]
			var rp replayOut
			var err error
			for r := 0; r < reps && err == nil; r++ {
				var next replayOut
				next, err = replay(tr, root, id, col.label, col.mech, k.n, rec.insts, rec.stable)
				if r == 0 || next.run < rp.run {
					rp = next
				}
			}
			if err != nil {
				res.invalid(err)
				continue
			}
			colNS[ci] += float64(rp.run)
			colCycles[ci] += float64(rp.cycles)
			if col.label == "constable" {
				eliminated += rp.eliminated
			}
		}
		tr.end(root, nil)
	}
	nsPerCycle := func(ci int) float64 { return colNS[ci] / colCycles[ci] }

	n := float64(len(runMS))
	res.set("workload.build_ms", mean(build), "ms")
	res.set("fsim.stream_ms", mean(stream), "ms")
	res.set("fsim.minst_per_s", streamInstr/1e6/streamTime.Seconds(), "Minst/s")
	res.set("inspector.prepass_ms", mean(prepass), "ms")
	res.set("cache.hierarchy_new_ms", mean(hier), "ms")
	res.set("cache.hierarchy_new_bytes", mean(hierBytes), "bytes")
	res.set("cache.l1d_accesses", float64(l1d), "count")
	res.set("cache.llc_accesses", float64(llc), "count")
	res.set("pipeline.core_new_ms", mean(coreNew), "ms")
	for ci, col := range fig11Columns {
		res.set("pipeline.mcycles_per_s."+col.label, colCycles[ci]/colNS[ci]*1e3, "Mcycles/s")
	}
	res.set("constable.ns_per_cycle_over_baseline", nsPerCycle(2)-nsPerCycle(0), "ns")
	res.set("vpred.eves_ns_per_cycle_over_baseline", nsPerCycle(1)-nsPerCycle(0), "ns")
	res.set("constable.eliminated_loads", float64(eliminated), "count")
	res.set("sim.attachments_new_ms", mean(attach), "ms")
	res.set("sim.run_ms", median(runMS), "ms")
	res.set("sim.self_ms", mean(selfMS), "ms")
	res.set("sim.cycles_total", float64(cycles), "count")
	res.set("sim.host_ns_per_cycle", float64(runTime)/float64(cycles), "ns")
	res.set("go.allocs_per_cell", float64(allocs)/n, "count")
	res.set("go.alloc_bytes_per_cell", float64(allocBytes)/n, "bytes")
	return nil
}

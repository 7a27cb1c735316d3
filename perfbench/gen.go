package main

import (
	"fmt"
	"math/rand"

	"constable/internal/service"
	"constable/internal/workload"
)

// Seeded input generation. The program under test only ever sees the specs
// built here; the seed never reaches it.
//
// Short cells are drawn from a per-seed space of
// workloads × mechanisms × budgets. The budgets are what make two seeds
// disjoint: seed s owns the four offsets {r, 255-r, 256+r, 511-r} above
// shortBase with r = s mod 128, so every seed's offsets average 255.5 (the
// cost of a cell does not drift with the seed) and seeds that differ
// modulo 128 never share a budget, hence never share a content hash.

const (
	shortBase = 2000 // instructions of the shortest cell

	fig11Instructions = 80_000
	fig11Cells        = 15 * 5 // small suite × fig11 columns

	sweepCells  = 240 // cells in one sweep-short sweep
	sweepRowLen = 10  // cells per matrix row of a sweep request

	hotPoolSize = 96 // interactive-rw reads draw from this many specs
	lruEntries  = 48 // the interactive server's -cache, half the hot pool
	writeEvery  = 10 // every tenth interactive request is a fresh write
)

// shortPresets × axisSuffixes are the mechanisms short cells use. Oracle
// presets are left out: they share a per-process pre-pass memo, which would
// make a cell's cost depend on which cells ran before it.
var (
	shortPresets = []string{"baseline", "eves", "constable", "eves+constable", "elar", "rfp"}
	axisSuffixes = []string{"", ",bpred=bimodal", ",prefetch=delta", ",prefetch=none", ",l1dpred=counter"}
)

// cell is one generated simulation request and its expected content hash.
type cell struct {
	Spec service.JobSpec
	Hash string
}

// budgetOffsets returns the seed's four budget offsets above shortBase.
func budgetOffsets(seed int64) [4]uint64 {
	r := uint64(((seed % 128) + 128) % 128)
	return [4]uint64{r, 255 - r, 256 + r, 511 - r}
}

// space is the seeded, shuffled list of every short cell a seed may use.
// Consumers take disjoint slices of it, so no two generated cells of one
// seed share a hash.
type space struct {
	order []cell
}

func newSpace(seed int64) (*space, error) {
	names := workload.Names()
	offs := budgetOffsets(seed)
	var all []service.JobSpec
	for _, wl := range names {
		for _, p := range shortPresets {
			for _, ax := range axisSuffixes {
				for _, off := range offs {
					all = append(all, service.JobSpec{Workload: wl, Mechanism: p + ax, Instructions: shortBase + off})
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(all))
	sp := &space{order: make([]cell, len(all))}
	for i, j := range perm {
		h, err := all[j].Hash()
		if err != nil {
			return nil, fmt.Errorf("gen: hash %+v: %w", all[j], err)
		}
		sp.order[i] = cell{Spec: all[j], Hash: h}
	}
	return sp, nil
}

// take returns n cells starting at position from of the seed's order.
func (sp *space) take(from, n int) []cell {
	if from+n > len(sp.order) {
		panic(fmt.Sprintf("gen: space of %d cells exhausted (want %d..%d)", len(sp.order), from, from+n))
	}
	return sp.order[from : from+n]
}

// Layout of a seed's space: the interactive hot pool first, then the
// interactive writes, then one block per sweep.
const (
	maxWrites  = 1200
	sweepsBase = hotPoolSize + maxWrites
	maxSweeps  = 36
)

func (sp *space) hotPool() []cell     { return sp.take(0, hotPoolSize) }
func (sp *space) writes(n int) []cell { return sp.take(hotPoolSize, min(n, maxWrites)) }
func (sp *space) sweep(k int) []cell  { return sp.take(sweepsBase+(k%maxSweeps)*sweepCells, sweepCells) }

// fig11Specs returns the cells `experiments -run fig11` simulates, in
// matrix order: the small suite × the five fig11 columns.
func fig11Specs() ([]cell, error) {
	mechs := []service.MechSpec{
		{},
		{EVES: true},
		{Constable: true},
		{EVES: true, Constable: true},
		{EVES: true, IdealConstable: true},
	}
	var out []cell
	for _, spec := range workload.SmallSuite() {
		for _, m := range mechs {
			js := service.JobSpec{Workload: spec.Name, Mech: m, Instructions: fig11Instructions, Threads: 1}
			h, err := js.Hash()
			if err != nil {
				return nil, err
			}
			out = append(out, cell{Spec: js, Hash: h})
		}
	}
	return out, nil
}

// request is one entry of the interactive open-loop schedule.
type request struct {
	Due   float64 // seconds after the schedule starts
	Write bool
	Cell  cell
}

// interactiveSchedule builds the open-loop schedule: n requests at a fixed
// rate, every writeEvery-th a fresh write, the rest reads drawn uniformly
// (seeded) from the hot pool.
func interactiveSchedule(sp *space, seed int64, rate float64, n int) []request {
	hot := sp.hotPool()
	writes := sp.writes(n / writeEvery)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	out := make([]request, n)
	w := 0
	for i := range out {
		out[i].Due = float64(i) / rate
		if i%writeEvery == writeEvery-1 && w < len(writes) {
			out[i].Write = true
			out[i].Cell = writes[w]
			w++
			continue
		}
		out[i].Cell = hot[rng.Intn(len(hot))]
	}
	return out
}

// predictLRUHits replays the schedule through a model of the server's LRU
// (capacity entries, filled by the warm-up in hot-pool order) and returns
// how many reads it expects the LRU to answer; the others fall through to
// the disk store. Writes enter the LRU when they are submitted.
func predictLRUHits(hot []cell, sched []request, capacity int) int {
	lru := newLRUModel(capacity)
	for _, c := range hot {
		lru.touch(c.Hash)
	}
	hits := 0
	for _, r := range sched {
		if !r.Write && lru.has(r.Cell.Hash) {
			hits++
		}
		lru.touch(r.Cell.Hash)
	}
	return hits
}

// lruModel is a plain LRU over keys: a recency list kept as a slice, which
// is fast enough at the capacities used here.
type lruModel struct {
	cap  int
	keys []string // most recent last
}

func newLRUModel(capacity int) *lruModel { return &lruModel{cap: capacity} }

func (l *lruModel) has(k string) bool {
	for _, x := range l.keys {
		if x == k {
			return true
		}
	}
	return false
}

func (l *lruModel) touch(k string) {
	for i, x := range l.keys {
		if x == k {
			l.keys = append(l.keys[:i], l.keys[i+1:]...)
			break
		}
	}
	l.keys = append(l.keys, k)
	if len(l.keys) > l.cap {
		l.keys = l.keys[1:]
	}
}

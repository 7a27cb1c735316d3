package main

import (
	"reflect"
	"testing"
)

// hashes returns the content hashes of cells, checking each against a fresh
// JobSpec.Hash so a cached hash can never drift from the spec it names.
func hashes(t *testing.T, cells []cell) []string {
	t.Helper()
	out := make([]string, len(cells))
	for i, c := range cells {
		h, err := c.Spec.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if h != c.Hash {
			t.Fatalf("cell %d: recorded hash %s, JobSpec.Hash %s", i, c.Hash, h)
		}
		out[i] = h
	}
	return out
}

// freshCells is every cell a seed's runs simulate: all sweep blocks and
// every interactive write.
func freshCells(sp *space) []cell {
	out := append([]cell(nil), sp.writes(maxWrites)...)
	for k := 0; k < maxSweeps; k++ {
		out = append(out, sp.sweep(k)...)
	}
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	a, err := newSpace(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newSpace(7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.order, b.order) {
		t.Fatal("one seed generated two different spec lists")
	}
	if !reflect.DeepEqual(hashes(t, a.hotPool()), hashes(t, b.hotPool())) {
		t.Fatal("the hot pool is not fixed by the seed")
	}
	sa := interactiveSchedule(a, 7, interactiveRate, 2000)
	sb := interactiveSchedule(b, 7, interactiveRate, 2000)
	if !reflect.DeepEqual(sa, sb) {
		t.Fatal("one seed generated two different interactive schedules")
	}
}

func TestSeedCellsAreDistinct(t *testing.T) {
	sp, err := newSpace(3)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, h := range hashes(t, append(sp.hotPool(), freshCells(sp)...)) {
		if seen[h] {
			t.Fatalf("hash %s generated twice for one seed", h)
		}
		seen[h] = true
	}
}

func TestSeedsGiveDisjointFreshCells(t *testing.T) {
	for _, pair := range [][2]int64{{1, 2}, {0, 127}, {5, 6}, {-1, 1}} {
		a, err := newSpace(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		b, err := newSpace(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		inA := make(map[string]bool)
		for _, h := range hashes(t, freshCells(a)) {
			inA[h] = true
		}
		for _, h := range hashes(t, freshCells(b)) {
			if inA[h] {
				t.Fatalf("seeds %d and %d share fresh cell %s", pair[0], pair[1], h)
			}
		}
	}
}

func TestHotPoolOutgrowsLRU(t *testing.T) {
	sp, err := newSpace(11)
	if err != nil {
		t.Fatal(err)
	}
	sched := interactiveSchedule(sp, 11, interactiveRate, 3200)
	reads, writes := 0, 0
	for _, r := range sched {
		if r.Write {
			writes++
		} else {
			reads++
		}
	}
	if reads < 1000 || writes < 100 {
		t.Fatalf("%d reads and %d writes; each percentile needs ten samples beyond it", reads, writes)
	}
	hits := predictLRUHits(sp.hotPool(), sched, lruEntries)
	if share := float64(hits) / float64(reads); share < 0.2 || share > 0.8 {
		t.Fatalf("designed LRU share of reads %.2f: reads should split between the LRU and the store", share)
	}
}

func TestSelfTimeSubtractsCoveredIntervalOnce(t *testing.T) {
	parent := span{Start: 0, End: 100}
	children := []span{{Start: 10, End: 40}, {Start: 30, End: 50}, {Start: 90, End: 120}}
	if got := selfTime(parent, children); got != 50 {
		t.Fatalf("self time %d, want 50", got)
	}
}

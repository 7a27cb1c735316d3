package sim

import (
	"reflect"
	"sync"
	"testing"

	"constable/internal/constable"
	"constable/internal/pipeline"
)

// recycleCells returns short cells over the mechanisms that touch the
// recycled cache arrays differently; Constable-AMT-I hooks L1D.OnEvict.
func recycleCells(t *testing.T) []Options {
	t.Helper()
	amtI := constable.DefaultConfig()
	amtI.InvalidateOnL1Evict = true
	return []Options{
		{Workload: spec(t, "server-kvstore-00"), Instructions: 4000},
		{Workload: spec(t, "client-browser-00"), Instructions: 4000,
			Mech: Mechanism{Constable: true, ConstableConfig: &amtI}},
		{Workload: spec(t, "server-kvstore-00"), Instructions: 4000,
			Mech: Mechanism{EVES: true, Constable: true, Prefetch: "delta"}},
		{Workload: spec(t, "client-browser-00"), Instructions: 3000, Threads: 2,
			Mech: Mechanism{Constable: true, ConstableConfig: &amtI}},
	}
}

func mustRun(t *testing.T, opts Options) *RunResult {
	t.Helper()
	r, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRunUnaffectedByEarlierCells checks that a cell's result does not
// depend on which cells ran before it in the process: each cell, rerun
// after all the others have recycled their cache arrays, matches its first
// run exactly.
func TestRunUnaffectedByEarlierCells(t *testing.T) {
	cells := recycleCells(t)
	first := make([]*RunResult, len(cells))
	for i, c := range cells {
		first[i] = mustRun(t, c)
	}
	for i := len(cells) - 1; i >= 0; i-- {
		if again := mustRun(t, cells[i]); !reflect.DeepEqual(first[i], again) {
			t.Errorf("cell %d (%s): result changed after running other cells", i, first[i].Identity.Mechanism)
		}
	}
}

// TestConcurrentRunsMatchSequential runs cells on two goroutines at once,
// sharing the recycling pool, and checks each against its sequential result.
func TestConcurrentRunsMatchSequential(t *testing.T) {
	cells := recycleCells(t)
	want := make([]*RunResult, len(cells))
	for i, c := range cells {
		want[i] = mustRun(t, c)
	}
	got := make([][]*RunResult, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = make([]*RunResult, len(cells))
			for k := range cells {
				i := (k + g) % len(cells) // the goroutines run different cells at once
				if got[g][i], errs[g] = Run(cells[i]); errs[g] != nil {
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		for i := range cells {
			if !reflect.DeepEqual(got[g][i], want[i]) {
				t.Errorf("goroutine %d, cell %d: concurrent result differs from sequential", g, i)
			}
		}
	}
}

// TestPanickingRunLeavesLaterRunsExact makes Run panic after its hierarchy
// is built (a negative port count fails in pipeline.NewCore) and checks the
// deferred Release on that path leaves later cells exact.
func TestPanickingRunLeavesLaterRunsExact(t *testing.T) {
	cells := recycleCells(t)
	want := mustRun(t, cells[1])

	bad := pipeline.DefaultConfig()
	bad.NumALUPorts = -1
	for i := 0; i < 3; i++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("Run with a negative port count did not panic")
				}
			}()
			opts := cells[1]
			opts.Core = &bad
			Run(opts)
		}()
	}
	if got := mustRun(t, cells[1]); !reflect.DeepEqual(got, want) {
		t.Error("result changed after panicking runs")
	}
}

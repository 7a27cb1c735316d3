package main

import (
	"fmt"
	"math/rand"
	"reflect"

	"constable/internal/sim"
)

// Output check by re-simulation: a seeded sample of the results the system
// under test returned is simulated again in-process with sim.Run, outside
// the timed window, and must match cycle for cycle and counter for counter.

type checkItem struct {
	cell cell
	url  string         // where the result was fetched from
	got  *sim.RunResult // the system's answer
}

// fetch downloads the system's result document for the cell.
func (c *checkItem) fetch() error {
	var res sim.RunResult
	if err := getJSON(c.url, &res); err != nil {
		return fmt.Errorf("fetch result of %s: %w", c.cell.Hash[:12], err)
	}
	c.got = &res
	return nil
}

// verify re-simulates the cell and compares.
func (c *checkItem) verify() error {
	if c.got == nil {
		return fmt.Errorf("cell %s: no result to check", c.cell.Hash[:12])
	}
	return compareResult(c.cell, c.got)
}

func compareResult(cl cell, got *sim.RunResult) error {
	opts, err := cl.Spec.ToOptions()
	if err != nil {
		return err
	}
	want, err := sim.Run(opts)
	if err != nil {
		return fmt.Errorf("re-simulate %s: %w", cl.Hash[:12], err)
	}
	if got.Cycles != want.Cycles || !reflect.DeepEqual(map[string]uint64(got.Counters), map[string]uint64(want.Counters)) {
		return fmt.Errorf("cell %s (%s %s n=%d): result differs from re-simulation (cycles %d, want %d)",
			cl.Hash[:12], cl.Spec.Workload, cl.Spec.Mechanism, cl.Spec.Instructions, got.Cycles, want.Cycles)
	}
	return nil
}

// sampleIdx picks k distinct indices below n, seeded.
func sampleIdx(n int, seed int64, k int) []int {
	p := rand.New(rand.NewSource(seed)).Perm(n)
	return p[:min(k, n)]
}

// Command perfbench is the repository's end-to-end benchmark. It builds the
// real binaries (cmd/experiments, cmd/constable-server,
// cmd/constable-worker) untimed, then drives one workload against fresh
// processes, checks every output, and prints one JSON result as its last
// line:
//
//	bash perfbench/run.sh --workload sweep-short --seed 3 --seconds 20 --trace 0
//
// With --trace 1 it instead makes the traced run: every layer's public
// functions called in-process behind timing spans, reporting the per-layer
// metrics. See perfbench/README.md for the metrics and workloads.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output: the last line it prints, as JSON.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	notes  []string
	errors []error
}

func newResult() *result { return &result{Correct: true, Metrics: map[string]metric{}} }

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records one failed operation; any failure makes the run incorrect.
func (r *result) fail(err error) {
	r.Failed++
	r.Correct = false
	r.errors = append(r.errors, err)
}

// invalid marks the run incorrect without a failed operation (a broken
// cache-hygiene guard, say).
func (r *result) invalid(err error) {
	r.Correct = false
	r.errors = append(r.errors, err)
}

// env is what every workload runner needs.
type env struct {
	root    string
	bin     binaries
	seed    int64
	seconds time.Duration
}

var workloads = map[string]func(*env) (*result, error){
	"fig11-cold":     runFig11Cold,
	"sweep-short":    runSweepShort,
	"interactive-rw": runInteractive,
}

func main() {
	var (
		name    = flag.String("workload", "", "fig11-cold, sweep-short or interactive-rw")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 50, "measured seconds (the traced run's phases have fixed sizes)")
		trace   = flag.Int("trace", 0, "1 makes the traced per-layer run instead of the end-to-end one")
	)
	flag.Parse()
	// The harness shares the machine with the system under test; collect
	// its own garbage less often so it steals less CPU from it.
	debug.SetGCPercent(400)
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool) error {
	wl, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "constable-server")); err != nil {
		return errors.New("run from the repository root")
	}
	e := &env{root: root, seed: seed, seconds: time.Duration(seconds) * time.Second}
	defer os.RemoveAll(filepath.Join(root, ".bench_build", "tmp"))

	var res *result
	if traced {
		res, err = runTraced(e, name)
	} else {
		if e.bin, err = buildBinaries(root); err != nil {
			return err
		}
		res, err = wl(e)
	}
	if err != nil {
		return err
	}
	report(name, res)
	if !res.Correct {
		return fmt.Errorf("%s: output check or cache-hygiene guard failed", name)
	}
	return nil
}

// report prints the human-readable summary to stdout, then the JSON
// result as the last line.
func report(name string, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n, m := range res.Metrics {
		names = append(names, n)
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.invalid(fmt.Errorf("metric %s is not a number", n))
			delete(res.Metrics, n)
		}
	}
	sort.Strings(names)
	for _, n := range res.notes {
		fmt.Println("#", n)
	}
	for _, err := range res.errors {
		fmt.Println("# FAIL:", err)
	}
	for _, n := range names {
		if m, ok := res.Metrics[n]; ok {
			fmt.Printf("%s %-44s %14.6g %s\n", name, n, m.Value, m.Unit)
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		// Every value is finite, so this cannot happen; report a failed
		// run in the same format if it does.
		b = []byte(`{"correct":false,"attempted":1,"failed":1,"metrics":{}}`)
	}
	fmt.Println(string(b))
}

package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// fig11-cold: `experiments -run fig11` in a fresh process with no data
// dir, launched back to back until the run's time is up. One client (the
// harness) waits for each driver run, so this is a closed loop of one.

// fig11Recorded is the table the benchmark expects for its budget. The
// simulator is deterministic, so any difference is a wrong output; a
// deliberate model change re-records it.
func fig11Recorded(root string) ([]byte, error) {
	return os.ReadFile(filepath.Join(root, "perfbench", "testdata", "fig11_n"+strconv.Itoa(fig11Instructions)+".txt"))
}

// fig11Artifact strips the driver's trailing wall-clock line, which is the
// one part of its output that is not deterministic.
func fig11Artifact(out []byte) []byte {
	if i := bytes.LastIndex(out, []byte("\ncompleted in ")); i >= 0 {
		return out[:i]
	}
	return out
}

// fig11SetupProbes is how many extra cold drivers a run launches only to
// time their first output line. A run has about 14 full launches, and the
// median setup of so few spread by a third over ten runs.
const fig11SetupProbes = 24

type fig11Launch struct {
	setup, wall time.Duration
	cpu         time.Duration
	rssMB       float64
}

// startFig11 launches one cold driver and returns a reader of its output.
func startFig11(bin binaries) (*proc, *bufio.Reader, error) {
	pr, pw := io.Pipe()
	p, err := startProc(bin.experiments, pw, []string{"GOMAXPROCS=1"}, "-run", "fig11", "-n", strconv.Itoa(fig11Instructions))
	if err != nil {
		return nil, nil, err
	}
	go func() {
		<-p.exited
		pw.Close()
	}()
	return p, bufio.NewReader(pr), nil
}

// probeFig11Setup launches a cold driver, times its first output line and
// kills it.
func probeFig11Setup(bin binaries) (time.Duration, error) {
	p, br, err := startFig11(bin)
	if err != nil {
		return 0, err
	}
	_, err = br.ReadBytes('\n')
	setup := time.Since(p.start)
	_ = p.cmd.Process.Kill()
	// Wait returns only once the driver's output is drained.
	go io.Copy(io.Discard, br)
	<-p.exited
	return setup, err
}

// launchFig11 runs one cold driver and checks its table.
func launchFig11(bin binaries, want []byte) (fig11Launch, error) {
	p, br, err := startFig11(bin)
	if err != nil {
		return fig11Launch{}, err
	}
	var out bytes.Buffer
	first, err := br.ReadBytes('\n')
	setup := time.Since(p.start)
	out.Write(first)
	if _, cerr := io.Copy(&out, br); err == nil {
		err = cerr
	}
	werr := p.wait()
	wall := time.Since(p.start)
	if werr != nil {
		return fig11Launch{}, werr
	}
	if err != nil {
		return fig11Launch{}, err
	}
	if got := fig11Artifact(out.Bytes()); !bytes.Equal(got, want) {
		return fig11Launch{}, fmt.Errorf("fig11 table differs from the recorded one:\n%s", got)
	}
	return fig11Launch{setup: setup, wall: wall, cpu: p.cpu(), rssMB: p.maxRSSMB()}, nil
}

func runFig11Cold(e *env) (*result, error) {
	want, err := fig11Recorded(e.root)
	if err != nil {
		return nil, err
	}
	want = fig11Artifact(want)
	res := newResult()
	var setup, walls, cpuPerCell, rss, minst, cellsPS []float64
	for i := 0; i < fig11SetupProbes; i++ {
		d, err := probeFig11Setup(e.bin)
		if err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		setup = append(setup, d.Seconds())
	}
	deadline := time.Now().Add(e.seconds)
	for res.Attempted == 0 || time.Now().Before(deadline) {
		res.Attempted++
		l, err := launchFig11(e.bin, want)
		if err != nil {
			// The driver is deterministic: a wrong table would repeat.
			res.fail(err)
			break
		}
		setup = append(setup, l.setup.Seconds())
		walls = append(walls, ms(l.wall))
		cpuPerCell = append(cpuPerCell, ms(l.cpu)/fig11Cells)
		rss = append(rss, l.rssMB)
		minst = append(minst, fig11Cells*fig11Instructions/1e6/l.wall.Seconds())
		cellsPS = append(cellsPS, fig11Cells/l.wall.Seconds())
	}
	if len(walls) == 0 {
		return res, nil
	}
	res.set("setup_s", median(setup), "s")
	res.set("cells_per_s", median(cellsPS), "1/s")
	res.set("sim_minst_per_s", median(minst), "Minst/s")
	res.set("cpu_ms_per_cell", median(cpuPerCell), "ms")
	res.set("peak_rss_mb", median(rss), "MB")
	// Every cell of a driver run reaches its user when the table prints, so
	// each run's wall is the latency of all its cells.
	res.set("latency_p50_ms", median(walls), "ms")
	res.note("fig11-cold: %d cold driver runs, walls %s ms; setup median over %d launches", len(walls), fmtList(walls), len(setup))
	return res, nil
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 0, 64)
	}
	return strings.Join(parts, " ")
}

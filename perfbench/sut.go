package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The system under test: the repo's own binaries, built untimed into
// .bench_build/bin and launched fresh for every measured operation.

type binaries struct {
	experiments, server, worker string
}

// buildBinaries builds cmd/experiments, cmd/constable-server and
// cmd/constable-worker from the checkout at root.
func buildBinaries(root string) (binaries, error) {
	out := filepath.Join(root, ".bench_build", "bin")
	cmd := exec.Command("go", "build", "-o", out+string(filepath.Separator),
		"./cmd/experiments", "./cmd/constable-server", "./cmd/constable-worker")
	cmd.Dir = root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return binaries{}, fmt.Errorf("build system under test: %w", err)
	}
	return binaries{
		experiments: filepath.Join(out, "experiments"),
		server:      filepath.Join(out, "constable-server"),
		worker:      filepath.Join(out, "constable-worker"),
	}, nil
}

// proc is one launched system-under-test process.
type proc struct {
	cmd     *exec.Cmd
	start   time.Time
	stderr  *syncBuffer
	exited  chan struct{} // closed once Wait returned
	waitErr error
	state   *os.ProcessState
}

// startProc launches bin with extra environment variables env; its stdout
// goes to stdout when non-nil.
func startProc(bin string, stdout io.Writer, env []string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	if env != nil {
		cmd.Env = append(os.Environ(), env...)
	}
	// Should the harness die without stopping it, the kernel kills it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &proc{cmd: cmd, stderr: &syncBuffer{}, exited: make(chan struct{})}
	cmd.Stderr = p.stderr
	cmd.Stdout = stdout
	p.start = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		p.waitErr = cmd.Wait()
		p.state = cmd.ProcessState
		close(p.exited)
	}()
	return p, nil
}

// wait blocks until the process exits and reports a non-zero exit.
func (p *proc) wait() error {
	<-p.exited
	if p.waitErr != nil {
		return fmt.Errorf("%s: %w: %s", filepath.Base(p.cmd.Path), p.waitErr, p.stderr.String())
	}
	return nil
}

// stop sends SIGTERM and waits for the process to exit (SIGKILL after
// 15s), keeping its exit state for the resource accounting.
func (p *proc) stop() {
	select {
	case <-p.exited:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
}

// syncBuffer is a strings.Builder safe for the exec copier goroutine and a
// concurrent reader.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// cpu is the user+system CPU the process used over its whole life; it is
// valid once the process has exited.
func (p *proc) cpu() time.Duration {
	return p.state.UserTime() + p.state.SystemTime()
}

// maxRSSMB is the process's peak resident set in MiB (valid after exit).
func (p *proc) maxRSSMB() float64 {
	ru, ok := p.state.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// liveCPU reads the running process's user+system CPU from /proc.
func (p *proc) liveCPU() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat for pid %d", p.cmd.Process.Pid)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat for pid %d", p.cmd.Process.Pid)
	}
	const clkTck = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / clkTck, nil
}

// freeAddr returns a loopback address with a port nothing listens on.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

var httpc = &http.Client{Timeout: 60 * time.Second}

// waitFor polls ok until it reports true, failing early when the process
// exits and after timeout.
func waitFor(p *proc, timeout time.Duration, ok func() bool) error {
	exited := false
	err := pollUntil(timeout, func() bool {
		select {
		case <-p.exited:
			exited = true
			return true
		default:
			return ok()
		}
	})
	switch {
	case exited:
		return fmt.Errorf("%s exited early: %s", filepath.Base(p.cmd.Path), p.stderr.String())
	case err != nil:
		return fmt.Errorf("%s not ready after %v: %s", filepath.Base(p.cmd.Path), timeout, p.stderr.String())
	}
	return nil
}

// pollUntil polls ok every millisecond until it holds or timeout passes.
func pollUntil(timeout time.Duration, ok func() bool) error {
	deadline := time.Now().Add(timeout)
	for !ok() {
		if time.Now().After(deadline) {
			return errors.New("timed out")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

func healthy(base string) bool {
	resp, err := httpc.Get(base + "/healthz")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// workersRegistered reports how many healthy workers the server lists.
func workersRegistered(base string) int {
	var ws []struct {
		Healthy bool `json:"healthy"`
	}
	if err := getJSON(base+"/v1/workers", &ws); err != nil {
		return 0
	}
	n := 0
	for _, w := range ws {
		if w.Healthy {
			n++
		}
	}
	return n
}

func getJSON(url string, v any) error {
	resp, err := httpc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, b)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// scrapeMetrics reads the unlabeled constable_* series of GET /metrics.
func scrapeMetrics(base string) (map[string]float64, error) {
	resp, err := httpc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseMetrics(resp.Body)
}

// settledMetrics reads metrics until done reports that the counters caught
// up, or for at most two seconds. The scheduler counts a job as executed
// just after finishing it, so /metrics can trail the answer or event that
// announced the job by a moment.
func settledMetrics(read func() (map[string]float64, error), done func(map[string]float64) bool) (m map[string]float64, err error) {
	_ = pollUntil(2*time.Second, func() bool {
		m, err = read()
		return err != nil || done(m)
	})
	return m, err
}

// parseMetrics reads the unlabeled constable_* series of the /metrics
// text format into a map keyed by the name without its prefix.
func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.Contains(name, "{") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		out[strings.TrimPrefix(name, "constable_")] = v
	}
	return out, sc.Err()
}

// startServer launches constable-server on a free loopback port with the
// given extra flags and returns it once /healthz answers.
func startServer(bin string, flags ...string) (*proc, string, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, "", err
	}
	p, err := startProc(bin, nil, nil, append([]string{"-addr", addr}, flags...)...)
	if err != nil {
		return nil, "", err
	}
	base := "http://" + addr
	if err := waitFor(p, 30*time.Second, func() bool { return healthy(base) }); err != nil {
		p.stop()
		return nil, "", err
	}
	return p, base, nil
}

// mkRunDir makes a fresh, empty directory under .bench_build/tmp.
func mkRunDir(root, prefix string) (string, error) {
	dir := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(dir, prefix)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}

// ctxSleep sleeps until t or ctx ends.
func sleepUntil(ctx context.Context, t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-tm.C:
	case <-ctx.Done():
	}
}

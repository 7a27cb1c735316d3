package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"constable/internal/service"
)

// Spans for the traced run. Each span has a name, a start and an end, the
// index of the span that caused it (-1 for none) and an ID that every span
// of one cell or request shares (the content hash where there is one).
// Spans are kept in memory and written out when the run ends.

type span struct {
	Name   string        `json:"name"`
	ID     string        `json:"id"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// Items lists the cell hashes a batch dispatch carried.
	Items []string `json:"items,omitempty"`
	// In and Out count request and response body bytes at HTTP spans.
	In  int64 `json:"in_bytes,omitempty"`
	Out int64 `json:"out_bytes,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer records spans. A nil *tracer records nothing, which is how the
// untraced twin of a traced phase runs the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its index.
func (t *tracer) start(name, id string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: now})
	return len(t.spans) - 1
}

// end closes span i, letting update fill in attributes under the lock.
func (t *tracer) end(i int, update func(*span)) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = now
	if update != nil {
		update(&t.spans[i])
	}
}

// timed runs f inside a span and returns its duration.
func (t *tracer) timed(name, id string, parent int, f func()) time.Duration {
	i := t.start(name, id, parent)
	s := time.Now()
	f()
	d := time.Since(s)
	t.end(i, nil)
	return d
}

// link records that span child was caused by span parent.
func (t *tracer) link(child, parent int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[child].Parent = parent
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// named returns the spans called name.
func named(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// meanMS is the mean duration of spans in milliseconds.
func meanMS(spans []span) float64 {
	xs := make([]float64, len(spans))
	for i, s := range spans {
		xs[i] = ms(s.dur())
	}
	return mean(xs)
}

// selfTime is a span's duration minus the part of its interval that its
// children cover (overlapping children count once).
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, end time.Duration
	end = parent.Start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		covered += v.b - max(v.a, end)
		end = v.b
	}
	return parent.dur() - covered
}

// writeSpans writes the spans as JSON under .bench_build/traces.
func writeSpans(root, name string, spans []span) (string, error) {
	dir := filepath.Join(root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".json")
	b, err := json.Marshal(spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// routeSpan names the layer boundary an HTTP request crosses.
func routeSpan(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/v1/sweeps":
		return "http.sweep_submit"
	case r.Method == http.MethodPost && p == "/v1/runs":
		return "http.run"
	case r.Method == http.MethodGet && strings.HasPrefix(p, "/v1/results/"):
		return "share.lookup"
	case r.Method == http.MethodPut && strings.HasPrefix(p, "/v1/results/"):
		return "share.writeback"
	case r.Method == http.MethodPost && p == "/execute/batch":
		return "wire.execute_batch"
	}
	return "http.other"
}

// middleware wraps h so every request is a span named by routeSpan, with
// its body sizes and the identity of what it carries.
func (t *tracer) middleware(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := routeSpan(r)
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		id, items := spanIdentity(name, r, body)
		i := t.start(name, id, -1)
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		t.end(i, func(s *span) {
			s.In, s.Out, s.Items = int64(len(body)), cw.n, items
		})
	})
}

// spanIdentity extracts the cell identity a request carries: the spec hash
// of a run, the hash in a result URL, or the hashes of a batch dispatch.
func spanIdentity(name string, r *http.Request, body []byte) (string, []string) {
	switch name {
	case "http.run":
		var js service.JobSpec
		if json.Unmarshal(body, &js) == nil {
			if h, err := js.Hash(); err == nil {
				return h, nil
			}
		}
	case "share.lookup", "share.writeback":
		return strings.TrimPrefix(r.URL.Path, "/v1/results/"), nil
	case "wire.execute_batch":
		var req service.BatchExecuteRequest
		if json.Unmarshal(body, &req) == nil {
			items := make([]string, len(req.Items))
			for i, it := range req.Items {
				items[i] = it.Hash
			}
			return "", items
		}
	}
	return "", nil
}

// countingWriter counts response bytes and keeps streaming handlers
// flushing through the wrapper.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Spans of one request
// share Req; Parent is the ID of the span that caused this one (0 for a
// root). Start and End are nanoseconds since the tracer started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Req    string `json:"req"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

func (s span) dur() float64 { return float64(s.End - s.Start) }

// maxSpans bounds the tracer's memory; later spans are counted, not kept.
const maxSpans = 400_000

// tracer records spans in memory while on. A nil tracer records
// nothing, so untraced runs call the same code.
type tracer struct {
	t0      time.Time
	on      atomic.Bool
	next    atomic.Int64
	dropped atomic.Int64
	open    sync.Map // req -> innermost open span id

	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open span handle; the zero handle (tracer off) is inert.
type spanHandle struct {
	t *tracer
	s span
}

// start opens a span under the request's innermost open span, or as
// the request's root when none is open, and makes it the innermost.
func (t *tracer) start(layer, name, req string) spanHandle {
	return t.open1(layer, name, req, false)
}

// child is start for the wrappers around the program's layers: it
// records only inside a request whose root span is open, so operations
// a client leaves untraced stay untraced all the way down.
func (t *tracer) child(layer, name, req string) spanHandle {
	return t.open1(layer, name, req, true)
}

func (t *tracer) open1(layer, name, req string, needParent bool) spanHandle {
	if t == nil || !t.on.Load() {
		return spanHandle{}
	}
	var parent int64
	if req != "" {
		if p, ok := t.open.Load(req); ok {
			parent = p.(int64)
		}
	}
	if needParent && parent == 0 {
		return spanHandle{}
	}
	s := span{ID: t.next.Add(1), Parent: parent, Layer: layer, Name: name, Req: req, Start: int64(time.Since(t.t0))}
	if req != "" {
		t.open.Store(req, s.ID)
	}
	return spanHandle{t: t, s: s}
}

// recording reports whether the handle records a span.
func (h spanHandle) recording() bool { return h.t != nil }

func (h spanHandle) end() {
	t := h.t
	if t == nil {
		return
	}
	h.s.End = int64(time.Since(t.t0))
	if h.s.Req != "" {
		if h.s.Parent != 0 {
			t.open.Store(h.s.Req, h.s.Parent)
		} else {
			t.open.Delete(h.s.Req)
		}
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, h.s)
	} else {
		t.dropped.Add(1)
	}
	t.mu.Unlock()
}

// roundTripper times the router's proxy hop to a shard.
type roundTripper struct {
	t    *tracer
	next http.RoundTripper
}

func (rt roundTripper) RoundTrip(r *http.Request) (*http.Response, error) {
	h := rt.t.child("fleet", "proxy", r.Header.Get("X-Request-Id"))
	defer h.end()
	resp, err := rt.next.RoundTrip(r)
	if err != nil || !h.recording() {
		return resp, err
	}
	// The hop ends when the body is read; the router reads it fully
	// before answering, so timing to the header is close but short.
	// Buffer the body here so the span covers the whole transfer.
	body, rerr := readAllClose(resp)
	if rerr != nil {
		return nil, rerr
	}
	resp.Body = body
	return resp, nil
}

// handler times a shard's serving API behind the HTTP server.
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := t.child("serveapi", "handler", r.Header.Get("X-Request-Id"))
		defer h.end()
		next.ServeHTTP(w, r)
	})
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durations returns sorted durations (µs) of spans with the given layer
// and name.
func durations(spans []span, layer, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Layer == layer && s.Name == name {
			out = append(out, s.dur()/1e3)
		}
	}
	sort.Float64s(out)
	return out
}

// childTime sums, per span ID, the durations of its direct children.
func childTime(spans []span) map[int64]float64 {
	out := map[int64]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			out[s.Parent] += s.dur()
		}
	}
	return out
}

// selfDurations returns sorted self times (µs: duration minus direct
// children) of spans with the given layer and name.
func selfDurations(spans []span, layer, name string) []float64 {
	kids := childTime(spans)
	var out []float64
	for _, s := range spans {
		if s.Layer == layer && s.Name == name {
			out = append(out, (s.dur()-kids[s.ID])/1e3)
		}
	}
	sort.Float64s(out)
	return out
}

// layerSelf summarizes self time per layer, largest first.
func layerSelf(spans []span) []string {
	kids := childTime(spans)
	self := map[string]float64{}
	total := 0.0
	for _, s := range spans {
		v := s.dur() - kids[s.ID]
		self[s.Layer] += v
		total += v
	}
	var layers []string
	for l := range self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	var out []string
	for _, l := range layers {
		out = append(out, fmt.Sprintf("%-10s %12.3f ms  %5.1f%%", l, self[l]/1e6, 100*self[l]/total))
	}
	return out
}

// write stores the spans as JSON lines, preceded by the fingerprint.
func (t *tracer) write(dir, workload string, seed int64, fp map[string]any) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	err = enc.Encode(map[string]any{"fingerprint": fp, "dropped": t.dropped.Load()})
	for _, s := range t.snapshot() {
		if err != nil {
			break
		}
		err = enc.Encode(s)
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}

// overhead compares traced and untraced operations of one traced run:
// clients trace every other operation, so both kinds see the same
// system state.
type overhead struct {
	ok   [2]atomic.Int64 // successful operations, untraced and traced
	time [2]atomic.Int64 // ns the clients spent on each kind
}

// tracedOp reports whether a client's i-th operation is traced, and
// returns the tracer to use for it (nil when untraced).
func tracedOp(tr *tracer, i int) (*tracer, int) {
	if tr == nil || i%2 == 0 {
		return nil, 0
	}
	return tr, 1
}

func (o *overhead) add(kind int, ok bool, d time.Duration) {
	if ok {
		o.ok[kind].Add(1)
	}
	o.time[kind].Add(int64(d))
}

// pct is the traced throughput loss relative to untraced, in percent,
// per client-second.
func (o *overhead) pct() float64 {
	qu := float64(o.ok[0].Load()) / float64(o.time[0].Load())
	qt := float64(o.ok[1].Load()) / float64(o.time[1].Load())
	return (qu/qt - 1) * 100
}

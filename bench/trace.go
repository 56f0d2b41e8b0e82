package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark's own tracing: spans are recorded around calls into each
// layer, from outside the program (tracing inside the program is a later
// issue). A span has a name, start, end, the span that caused it, and the
// id of the request it belongs to. Spans stay in memory and are written as
// spans.jsonl when the run ends. End-to-end metrics always come from phases
// with the tracer off.

type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

type tracer struct {
	on     atomic.Bool
	ids    atomic.Uint64
	origin time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) enabled() bool { return t.on.Load() }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// do runs fn inside a span and returns the span's id to parent children on.
func (t *tracer) do(name string, req, parent uint64, fn func(id uint64)) {
	id := t.newID()
	start := t.now()
	fn(id)
	t.record(span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: t.now()})
}

// traceRef carries the request id and the current span across a call: in a
// context on the client side, in traceHeader over the wire.
type traceRef struct{ req, parent uint64 }

type traceKey struct{}

const traceHeader = "X-Bench-Trace"

func withTrace(ctx context.Context, ref traceRef) context.Context {
	return context.WithValue(ctx, traceKey{}, ref)
}

// traceTransport stamps outgoing requests with the caller's traceRef so the
// timing middleware on the other side can parent its span. The router hands
// the incoming request's context to its shard calls, so the reference the
// middleware put there travels on to the shards.
type traceTransport struct{ base http.RoundTripper }

func (tt traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if ref, ok := req.Context().Value(traceKey{}).(traceRef); ok {
		req = req.Clone(req.Context())
		req.Header.Set(traceHeader, fmt.Sprintf("%d/%d", ref.req, ref.parent))
	}
	return tt.base.RoundTrip(req)
}

// tracedClient wraps an httptest server's client with traceTransport.
func tracedClient(hc *http.Client) *http.Client {
	cp := *hc
	base := hc.Transport
	if base == nil {
		base = http.DefaultTransport
	}
	cp.Transport = traceTransport{base: base}
	return &cp
}

// middleware is the timing wrapper around a Handler(): with the tracer on
// and a trace header present it records a span named name over the handler
// call; otherwise it costs one atomic load.
func (t *tracer) middleware(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hdr := r.Header.Get(traceHeader)
		if !t.enabled() || hdr == "" {
			h.ServeHTTP(w, r)
			return
		}
		reqS, parentS, _ := strings.Cut(hdr, "/")
		req, _ := strconv.ParseUint(reqS, 10, 64)
		parent, _ := strconv.ParseUint(parentS, 10, 64)
		t.do(name+pathSuffix(r.URL.Path), req, parent, func(id uint64) {
			h.ServeHTTP(w, r.WithContext(withTrace(r.Context(), traceRef{req: req, parent: id})))
		})
	})
}

// pathSuffix keeps query spans under the bare layer name and sets the
// other endpoints apart ("server.handler:insert").
func pathSuffix(path string) string {
	if path == "/v1/query" {
		return ""
	}
	return ":" + strings.TrimPrefix(path, "/v1/")
}

// layerRow is one line of the traced run's per-layer table.
type layerRow struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	P50us  float64 `json:"p50_us"`
	Selfus float64 `json:"self_p50_us"`
}

// spanIndex groups recorded spans for the per-layer figures.
type spanIndex struct {
	byName   map[string][]span
	children map[uint64][]span
}

func (t *tracer) index() spanIndex {
	t.mu.Lock()
	defer t.mu.Unlock()
	ix := spanIndex{byName: map[string][]span{}, children: map[uint64][]span{}}
	for _, s := range t.spans {
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], s)
		}
	}
	return ix
}

// selfTime is a span's duration minus the part of its interval its child
// spans cover (overlapping children are counted once).
func selfTime(s span, kids []span) int64 {
	if len(kids) == 0 {
		return s.dur()
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo < s.Start {
			lo = s.Start
		}
		if hi > s.End {
			hi = s.End
		}
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, end int64
	end = s.Start
	for _, v := range iv {
		if v[1] <= end {
			continue
		}
		if v[0] > end {
			end = v[0]
		}
		covered += v[1] - end
		end = v[1]
	}
	return s.dur() - covered
}

// table returns count, p50 and self-time p50 for every span name.
func (ix spanIndex) table() []layerRow {
	names := make([]string, 0, len(ix.byName))
	for n := range ix.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	rows := make([]layerRow, 0, len(names))
	for _, n := range names {
		ss := ix.byName[n]
		durs := make([]float64, len(ss))
		selfs := make([]float64, len(ss))
		for i, s := range ss {
			durs[i] = float64(s.dur()) / 1e3
			selfs[i] = float64(selfTime(s, ix.children[s.ID])) / 1e3
		}
		rows = append(rows, layerRow{Name: n, Count: len(ss), P50us: median(durs), Selfus: median(selfs)})
	}
	return rows
}

// p50us is the median duration of the spans called name, in microseconds.
func (ix spanIndex) p50us(name string) float64 {
	ss := ix.byName[name]
	durs := make([]float64, len(ss))
	for i, s := range ss {
		durs[i] = float64(s.dur()) / 1e3
	}
	return median(durs)
}

// overheadP50us is the median, over the root spans called name, of the
// span's own time: its duration minus what its children cover.
func (ix spanIndex) overheadP50us(name string) float64 {
	ss := ix.byName[name]
	vs := make([]float64, len(ss))
	for i, s := range ss {
		vs[i] = float64(selfTime(s, ix.children[s.ID])) / 1e3
	}
	return median(vs)
}

// writeSpans dumps every span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// setSpanLayers adds the recorded spans' table to the layer rows.
func (r *run) setSpanLayers(ix spanIndex) {
	for _, row := range ix.table() {
		row.Name = "span:" + row.Name
		r.layers = append(r.layers, row)
	}
}

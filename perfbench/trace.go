package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
)

// span is one timed interval of the traced run. Spans of one service
// request share Trace (the X-Resilient-Trace ID the benchmark mints);
// Parent links a span to the span that caused it. A mark is a span whose
// start equals its end.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Trace  string `json:"trace,omitempty"`
	Detail string `json:"detail,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// spanLog keeps the spans of a traced run in memory until the run ends.
// Recording is off in untraced runs, and can be paused in a traced run so
// one process measures the same phase with and without tracing.
type spanLog struct {
	on    atomic.Bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog(on bool) *spanLog {
	l := &spanLog{epoch: time.Now()}
	l.on.Store(on)
	return l
}

func (l *spanLog) now() int64 { return time.Since(l.epoch).Nanoseconds() }

// add records a span when recording is on and returns its ID (0 when off).
func (l *spanLog) add(name, trace, detail string, start, end int64, parent int) int {
	if !l.on.Load() {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Trace: trace, Detail: detail, Start: start, End: end})
	return id
}

// byTrace groups the service spans by trace ID.
func (l *spanLog) byTrace() map[string][]span {
	l.mu.Lock()
	defer l.mu.Unlock()
	m := map[string][]span{}
	for _, s := range l.spans {
		if s.Trace != "" {
			m[s.Trace] = append(m[s.Trace], s)
		}
	}
	return m
}

// serviceChain is the causal order of the spans of one service request:
// each span's parent is the nearest enclosing span of the previous name.
var serviceChain = []string{"bench.request", "api.client", "router.handle", "router.forward", "server.handle"}

// linkServiceParents fills Parent for the service spans, which are
// recorded on different goroutines (client, router, shard) and joined
// only by their shared trace ID.
func (l *spanLog) linkServiceParents() {
	l.mu.Lock()
	defer l.mu.Unlock()
	rank := map[string]int{}
	for i, n := range serviceChain {
		rank[n] = i
	}
	groups := map[string][]int{}
	for i, s := range l.spans {
		if _, ok := rank[s.Name]; ok && s.Trace != "" && s.Parent == 0 {
			groups[s.Trace] = append(groups[s.Trace], i)
		}
	}
	for _, idx := range groups {
		for _, i := range idx {
			r := rank[l.spans[i].Name]
			if r == 0 {
				continue
			}
			for _, j := range idx {
				p := l.spans[j]
				if rank[p.Name] == r-1 && p.Start <= l.spans[i].Start && p.End >= l.spans[i].End {
					l.spans[i].Parent = p.ID
					break
				}
			}
		}
	}
}

func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Epoch int64  `json:"epoch_unix_ns"`
		Spans []span `json:"spans"`
	}{l.epoch.UnixNano(), l.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// isSolvePath reports whether a request path is a solve (as opposed to
// health probes and status reads, which the layer metrics leave out).
func isSolvePath(p string) bool { return strings.HasPrefix(p, "/v1/solve") }

// spanHandler wraps a tier's public Handler() and records one span per
// solve request it serves, keyed by the request's trace ID.
func spanHandler(l *spanLog, name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !l.on.Load() || !isSolvePath(r.URL.Path) {
			h.ServeHTTP(w, r)
			return
		}
		t0 := l.now()
		h.ServeHTTP(w, r)
		l.add(name, r.Header.Get(api.TraceHeader), r.URL.Path, t0, l.now(), 0)
	})
}

// forwardTransport wraps the router's shard-facing transport
// (router.Config.Transport): every traced solve forward is one attempt,
// and its span lasts until the router closes the shard's response body.
type forwardTransport struct {
	base     http.RoundTripper
	log      *spanLog
	attempts atomic.Int64
}

func (t *forwardTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !isSolvePath(req.URL.Path) {
		return t.base.RoundTrip(req)
	}
	if !t.log.on.Load() {
		return t.base.RoundTrip(req)
	}
	t.attempts.Add(1)
	id := req.Header.Get(api.TraceHeader)
	t0 := t.log.now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.log.add("router.forward", id, req.URL.Path, t0, t.log.now(), 0)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func(int64) {
		t.log.add("router.forward", id, req.URL.Path, t0, t.log.now(), 0)
	}}
	return resp, nil
}

// spanBody calls done once, with the bytes read, when the body is closed.
type spanBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// traceKey carries a request's trace ID through the api.Client call.
type traceKey struct{}

func withTraceID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, traceKey{}, id)
}

// clientTransport is the benchmark client's transport, installed through
// api.WithHTTPClient. In a traced run it stamps the request's trace ID
// header, which the router adopts, and counts body bytes both ways.
type clientTransport struct {
	base                     http.RoundTripper
	log                      *spanLog
	reqs, reqBytes, rspBytes atomic.Int64
}

func (t *clientTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id, _ := req.Context().Value(traceKey{}).(string)
	if id == "" || !t.log.on.Load() {
		return t.base.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	req.Header.Set(api.TraceHeader, id)
	t.reqs.Add(1)
	t.reqBytes.Add(req.ContentLength)
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func(n int64) { t.rspBytes.Add(n) }}
	return resp, nil
}

// durationsMs collects the durations of the named spans, in ms.
func durationsMs(spans []span, name string) (out []float64) {
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

func sumOf(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// median is the nearest-rank median of xs (0 for no samples); xs is not
// modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return api.NearestRank(s, q)
}

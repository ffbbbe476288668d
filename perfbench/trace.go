package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"mavbench/pkg/mavbench"
	"mavbench/pkg/mavbench/resultdb"
)

// span is one timed call the benchmark made, or one call it intercepted at
// a boundary it owns (the store, the workers' handlers, the client's
// transport).
type span struct {
	Name    string `json:"name"`
	Request int    `json:"request"` // closed-loop request index, -1 if not known
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Bytes   int64  `json:"bytes,omitempty"`
}

// tracer keeps spans in memory. A nil tracer records nothing, so untraced
// runs pass nil and pay one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span from start to now.
func (t *tracer) add(name string, req int, start time.Time, bytes int64) {
	if t == nil {
		return
	}
	end := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Request: req, StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds(), Bytes: bytes})
	t.mu.Unlock()
}

// spanTotals aggregates the spans of one name that started at or after since.
type spanTotals struct {
	count int
	busy  time.Duration
	bytes int64
}

func (t *tracer) totals(since time.Time) map[string]spanTotals {
	out := map[string]spanTotals{}
	if t == nil {
		return out
	}
	from := since.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.StartNS < from {
			continue
		}
		st := out[s.Name]
		st.count++
		st.busy += time.Duration(s.EndNS - s.StartNS)
		st.bytes += s.Bytes
		out[s.Name] = st
	}
	return out
}

// write saves every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// timedStore times every Get and Put on the result store. It embeds the
// segment store so the service still sees its query interface.
type timedStore struct {
	*resultdb.Store
	tr *tracer
}

func (s *timedStore) Get(hash string) (mavbench.Result, bool) {
	start := time.Now()
	res, ok := s.Store.Get(hash)
	name := "store.get.miss"
	if ok {
		name = "store.get.hit"
	}
	s.tr.add(name, -1, start, 0)
	return res, ok
}

func (s *timedStore) Put(hash string, res mavbench.Result) {
	start := time.Now()
	s.Store.Put(hash, res)
	s.tr.add("store.put", -1, start, 0)
}

// timedHandler times a worker's batch endpoint, the call the coordinator
// dispatches to, and counts the NDJSON bytes it writes.
func timedHandler(next http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/run" {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		cw := &countingWriter{ResponseWriter: w}
		next.ServeHTTP(cw, r)
		tr.add("http.dispatch", -1, start, cw.n)
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

// Flush keeps the result stream incremental through the wrapper.
func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// countingTransport counts the NDJSON bytes of every result stream the
// client reads.
type countingTransport struct {
	next http.RoundTripper
	tr   *tracer
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.next.RoundTrip(req)
	if err != nil || !strings.HasSuffix(req.URL.Path, "/results") {
		return resp, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, tr: t.tr, start: time.Now()}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	tr    *tracer
	start time.Time
	n     int64
	once  sync.Once
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	b.once.Do(func() { b.tr.add("http.results_stream", -1, b.start, b.n) })
	return b.ReadCloser.Close()
}

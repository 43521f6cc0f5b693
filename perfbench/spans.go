package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// recorder keeps the benchmark's own spans in memory: one around each
// facade call a traced batch makes. A nil recorder records nothing.
type recorder struct {
	mu     sync.Mutex
	origin time.Time
	spans  []benchSpan
}

// benchSpan is one recorded interval, in wall nanoseconds since the
// recorder was made. Parent 0 marks a root.
type benchSpan struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// start opens a span under parent and returns its ID.
func (r *recorder) start(name string, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.origin).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, benchSpan{ID: len(r.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(r.spans)
}

// end closes the span with the given ID.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.origin).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// seconds sums the durations of every span with the given name.
func (r *recorder) seconds(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var ns int64
	for _, s := range r.spans {
		if s.Name == name {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

// writeJSONL writes every span as one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	r.mu.Lock()
	for _, s := range r.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	r.mu.Unlock()
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

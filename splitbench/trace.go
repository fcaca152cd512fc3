package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call: name, layer (the module the call enters), the
// job it served, its parent span (0 for a root) and its interval in
// nanoseconds since the trace began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Job    int    `json:"job"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; write saves them when the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span with a known interval and returns its id.
func (t *tracer) add(name, layer string, job, parent int, start, end time.Time) int {
	id := t.begin(name, layer, job, parent)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Start = start.Sub(t.t0).Nanoseconds()
	t.spans[id-1].End = end.Sub(t.t0).Nanoseconds()
	return id
}

// begin opens a span starting now; ids are allocated in order, so a
// parent always precedes its children.
func (t *tracer) begin(name, layer string, job, parent int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: job, Name: name, Layer: layer, Start: now})
	return id
}

// end closes span id now.
func (t *tracer) end(id int) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// timed runs f inside a span and returns the span id.
func (t *tracer) timed(name, layer string, job, parent int, f func()) int {
	id := t.begin(name, layer, job, parent)
	f()
	t.end(id)
	return id
}

// get returns span id.
func (t *tracer) get(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1]
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// breakdown is the self-time view of a set of job trees: for each layer
// and each call name, the time its spans spent outside their children.
type breakdown struct {
	jobs      int
	total     time.Duration // summed root span time
	layerSelf map[string]time.Duration
	callSelf  map[string]time.Duration
}

// selfTimes computes self time (span duration minus the part its direct
// children cover; children of one parent never overlap here) for the
// spans under the roots named root.
func (t *tracer) selfTimes(root string) breakdown {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := breakdown{layerSelf: map[string]time.Duration{}, callSelf: map[string]time.Duration{}}
	childTime := make(map[int]time.Duration)
	inTree := make(map[int]bool)
	for _, s := range t.spans {
		if s.Parent == 0 && s.Name == root {
			inTree[s.ID] = true
			b.jobs++
			b.total += s.dur()
		} else if inTree[s.Parent] {
			inTree[s.ID] = true
			childTime[s.Parent] += s.dur()
		}
	}
	for _, s := range t.spans {
		if !inTree[s.ID] || s.Parent == 0 {
			continue
		}
		self := s.dur() - childTime[s.ID]
		b.layerSelf[s.Layer] += self
		b.callSelf[s.Name] += self
	}
	return b
}

// largestCall names the call with the largest self time.
func (b breakdown) largestCall() string {
	names := make([]string, 0, len(b.callSelf))
	for n := range b.callSelf {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return b.callSelf[names[i]] > b.callSelf[names[j]] })
	if len(names) == 0 {
		return ""
	}
	return names[0]
}

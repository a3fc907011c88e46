package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: which call, when, which span caused
// it, and which benchmark operation it belongs to. Spans are recorded by
// the benchmark around calls into the program's public functions; the
// program itself is not instrumented.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) duration() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced half of a replay runs the same code.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id; end closes it. A nil tracer
// returns id 0 and end is a no-op.
func (t *tracer) begin(op, parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds an already-measured span, such as a job's queue wait read
// from the server's own timestamps.
func (t *tracer) record(op, parent int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return id
}

// call times fn as a span.
func (t *tracer) call(op, parent int, name string, fn func()) {
	id := t.begin(op, parent, name)
	fn()
	t.end(id)
}

// selfTimes returns every span's self time: its duration minus the part of
// its interval that its children cover (overlapping children count once).
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.duration() - time.Duration(coverage(children[s.ID], s.Start, s.End))
	}
	return out
}

// coverage returns how much of [lo, hi] the union of intervals covers.
func coverage(intervals [][2]int64, lo, hi int64) int64 {
	if len(intervals) == 0 {
		return 0
	}
	iv := append([][2]int64(nil), intervals...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered int64
	cur := lo
	for _, in := range iv {
		a, b := max(in[0], cur), min(in[1], hi)
		if b > a {
			covered += b - a
			cur = b
		}
	}
	return covered
}

// selfByName collects the self times of all spans with the given name.
func selfByName(spans []span, self map[int]time.Duration, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(self[s.ID]))
		}
	}
	return out
}

// durationsByOp returns the duration of every span with the given name,
// keyed by its operation; each operation has at most one span of a name.
func durationsByOp(spans []span, name string) map[int]float64 {
	out := make(map[int]float64)
	for _, s := range spans {
		if s.Name == name {
			out[s.Op] = float64(s.duration())
		}
	}
	return out
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile writes the spans as JSON lines, once, at the end of a run.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
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

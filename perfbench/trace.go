package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Spans of one solve or request share ID.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int    `json:"parent"` // index of the parent span; -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the whole run; write dumps them once
// the run has ended. A nil *tracer records nothing, so untraced runs pay
// only the nil check.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// op returns the tracer for operation i of a traced phase: t for every
// other operation and nil for the rest, so the untraced half measures the
// tracing overhead in the same run under the same conditions.
func (t *tracer) op(i int) *tracer {
	if i%2 == 0 {
		return t
	}
	return nil
}

// add records a span and returns its index, for children to name as
// their parent.
func (t *tracer) add(name string, id int64, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, ID: id, Parent: parent,
		Start: start.Sub(t.origin).Nanoseconds(),
		End:   end.Sub(t.origin).Nanoseconds(),
	})
	return len(t.spans) - 1
}

// durations returns the durations (ms) of the spans named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfTimes returns each span's self time (ns), by span index: its
// duration minus the time its children cover.
func (t *tracer) selfTimes() []int64 {
	kids := map[int][]interval{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], interval{s.Start, s.End})
		}
	}
	out := make([]int64, len(t.spans))
	for i, s := range t.spans {
		out[i] = selfTime(interval{s.Start, s.End}, kids[i])
	}
	return out
}

// write dumps the spans as JSON lines, each with its self time.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	self := t.selfTimes()
	for i, s := range t.spans {
		line := struct {
			span
			SelfNS int64 `json:"self_ns"`
		}{s, self[i]}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary the harness can see from
// outside the program: a call into a layer, or the interval between two
// observer ticks. Times are nanoseconds since the tracer started.
type span struct {
	Job    string `json:"job"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps the spans and per-event timings of a traced run in memory;
// they are written out when the run ends. Methods on a nil tracer do
// nothing, so untraced jobs call them unconditionally. A tracer is used
// from one goroutine at a time.
type tracer struct {
	origin time.Time
	job    string
	spans  []span
	// events holds timings too numerous to keep as spans (engine rounds,
	// page faults), as microseconds per named event.
	events map[string][]float64
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), events: map[string][]float64{}}
}

// add records a finished span and returns its id (0 on a nil tracer, which
// is also the parent id of a root span).
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		Job: t.job, ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds(),
	})
	return id
}

// open records a span whose end is not known yet; close sets it.
func (t *tracer) open(name string, parent int) int {
	now := time.Now()
	return t.add(name, parent, now, now)
}

func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.origin).Nanoseconds()
}

// event records one occurrence of a named event lasting d.
func (t *tracer) event(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.events[name] = append(t.events[name], float64(d.Nanoseconds())/1e3)
}

// durations returns the durations in microseconds of the spans named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e3)
		}
	}
	return out
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover. Children may overlap each other (sweep cells
// run on several workers), so the covered part is the length of the union
// of the children's intervals, clipped to the parent.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		slices.SortFunc(kids, func(a, b span) int { return int(a.Start - b.Start) })
		var covered int64
		cur, curEnd := int64(0), int64(0)
		open := false
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if open && lo <= curEnd {
				curEnd = max(curEnd, hi)
				continue
			}
			if open {
				covered += curEnd - cur
			}
			cur, curEnd, open = lo, hi, true
		}
		if open {
			covered += curEnd - cur
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// layerSummary aggregates the spans or events of one name.
type layerSummary struct {
	Count   int      `json:"count"`
	TotalMS float64  `json:"total_ms"`
	SelfMS  *float64 `json:"self_ms,omitempty"`
	P50MS   *float64 `json:"p50_ms,omitempty"`
	P99MS   *float64 `json:"p99_ms,omitempty"`
}

// summarize aggregates samples given in microseconds; p50/p99 appear only
// where at least ten samples lie beyond them.
func summarize(us []float64) layerSummary {
	ls := layerSummary{Count: len(us)}
	for _, v := range us {
		ls.TotalMS += v / 1e3
	}
	if v, ok := percentile(us, 50); ok {
		ms := v / 1e3
		ls.P50MS = &ms
	}
	if v, ok := percentile(us, 99); ok {
		ms := v / 1e3
		ls.P99MS = &ms
	}
	return ls
}

// layers aggregates every span name and event name of the trace.
func (t *tracer) layers() map[string]layerSummary {
	self := selfTimes(t.spans)
	byName := map[string][]span{}
	for _, s := range t.spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	out := map[string]layerSummary{}
	for name, ss := range byName {
		us := make([]float64, len(ss))
		var selfMS float64
		for i, s := range ss {
			us[i] = float64(s.dur()) / 1e3
			selfMS += float64(self[s.ID]) / 1e6
		}
		ls := summarize(us)
		ls.SelfMS = &selfMS
		out[name] = ls
	}
	for name, us := range t.events {
		out[name] = summarize(us)
	}
	return out
}

// write stores the trace in dir: spans.jsonl, one span per line, and
// layers.json, the per-layer aggregates plus the run's per-layer metrics
// and tracing overhead.
func (t *tracer) write(dir string, perLayer map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
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
	if err := f.Close(); err != nil {
		return err
	}
	doc := struct {
		Layers  map[string]layerSummary `json:"layers"`
		Metrics map[string]float64      `json:"metrics"`
	}{t.layers(), perLayer}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "layers.json"), append(b, '\n'), 0o644)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

package main

import (
	"sort"
	"sync"
	"time"
)

// span is one traced interval at a layer boundary. Spans of one
// circuit's flow or one scand job share Key.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"` // 0: root
	Name   string  `json:"name"`
	Layer  string  `json:"layer"`
	Key    string  `json:"key,omitempty"`
	Start  float64 `json:"start_ms"` // since the tracer's epoch
	End    float64 `json:"end_ms"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) since(at time.Time) float64 { return ms(at.Sub(t.epoch)) }

// begin opens a span and returns its ID.
func (t *tracer) begin(name, layer, key string, parent int) int {
	now := t.since(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Layer: layer, Key: key, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	now := t.since(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// setKey sets a span's key once it is known (a job ID after submit).
func (t *tracer) setKey(id int, key string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Key = key
}

// add records a finished span built elsewhere (from a job's events).
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// snapshot returns a copy of every closed span.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time in ms: its duration minus the
// part of its interval that its children cover (children clipped to the
// parent, overlaps counted once).
func selfTimes(spans []span) map[int]float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals
// within the parent's.
func covered(parent span, kids []span) float64 {
	type iv struct{ a, b float64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, curA, curB := 0.0, 0.0, -1.0
	for i, v := range ivs {
		if i == 0 || v.a > curB {
			if i > 0 {
				total += curB - curA
			}
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	if len(ivs) > 0 {
		total += curB - curA
	}
	return total
}

// layerSelf sums self time (ms) per layer.
func layerSelf(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Layer] += self[s.ID]
	}
	return out
}

// spanTotals sums span durations (ms) per span name.
func spanTotals(spans []span) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += s.dur()
	}
	return out
}

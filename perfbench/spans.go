package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
)

// keepSpans bounds how many raw spans one log holds; the count and
// total cover every span.
const keepSpans = 4096

// span is one timed call into a layer, in mono nanoseconds.
type span struct {
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// spanLog accumulates the spans of one layer, in memory.
type spanLog struct {
	count, total int64
	raw          []span
}

func (l *spanLog) add(start, end int64) {
	l.count++
	l.total += end - start
	if len(l.raw) < keepSpans {
		l.raw = append(l.raw, span{start, end})
	}
}

func (l *spanLog) merge(o *spanLog) {
	l.count += o.count
	l.total += o.total
	if room := keepSpans - len(l.raw); room > 0 {
		l.raw = append(l.raw, o.raw[:min(room, len(o.raw))]...)
	}
}

// meanNs is the mean span length; 0 when empty.
func (l *spanLog) meanNs() float64 {
	if l.count == 0 {
		return 0
	}
	return float64(l.total) / float64(l.count)
}

// tracer holds every layer's spans until the run ends.
type tracer struct {
	layers map[string]*spanLog
}

func newTracer() *tracer { return &tracer{layers: map[string]*spanLog{}} }

// log returns the named layer's span log.
func (t *tracer) log(layer string) *spanLog {
	l := t.layers[layer]
	if l == nil {
		l = &spanLog{}
		t.layers[layer] = l
	}
	return l
}

// timed runs fn as one span of layer and returns its length in ns.
func (t *tracer) timed(layer string, fn func() error) (int64, error) {
	start := mono()
	err := fn()
	end := mono()
	t.log(layer).add(start, end)
	return end - start, err
}

// write saves every layer's count, total and kept spans as JSON.
func (t *tracer) write(path string) error {
	type out struct {
		Layer   string `json:"layer"`
		Count   int64  `json:"count"`
		TotalNs int64  `json:"total_ns"`
		Spans   []span `json:"spans"`
	}
	var all []out
	for name, l := range t.layers {
		all = append(all, out{name, l.count, l.total, l.raw})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Layer < all[j].Layer })
	b, err := json.Marshal(all)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

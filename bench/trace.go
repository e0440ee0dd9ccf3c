package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded by the
// benchmark around its calls into each layer, kept in memory, and written out
// when the workload ends. parent is the span that caused this one (0 for the
// root); all spans of one traced workload share its name as run.
type span struct {
	id, parent int
	name       string
	start, end time.Time
	args       map[string]any
}

// tracer collects the spans of one traced workload.
type tracer struct {
	run   string
	spans []span
}

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent int, start, end time.Time, args map[string]any) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{id, parent, name, start, end, args})
	return id
}

// timed runs fn calls times inside one span and returns the mean duration of
// a call in microseconds; the layers it wraps take microseconds, too little
// for a single reading.
func (t *tracer) timed(name string, parent, calls int, fn func()) float64 {
	start := time.Now()
	for i := 0; i < calls; i++ {
		fn()
	}
	end := time.Now()
	t.add(name, parent, start, end, map[string]any{"calls": calls})
	return float64(end.Sub(start).Nanoseconds()) / 1e3 / float64(calls)
}

// traceEvent is one complete ("X") event of the Chrome trace-event format,
// which chrome://tracing and Perfetto load.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write stores the spans as dir/trace-<run>.json.
func (t *tracer) write(dir string) (string, error) {
	if len(t.spans) == 0 {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	origin := t.spans[0].start
	events := make([]traceEvent, 0, len(t.spans))
	for _, s := range t.spans {
		args := map[string]any{"run": t.run, "span": s.id, "parent": s.parent}
		for k, v := range s.args {
			args[k] = v
		}
		events = append(events, traceEvent{
			Name: s.name, Cat: "bench", Ph: "X",
			TS:  float64(s.start.Sub(origin).Nanoseconds()) / 1e3,
			Dur: float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			PID: 1, TID: 1, Args: args,
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+t.run+".json")
	return path, os.WriteFile(path, data, 0o644)
}

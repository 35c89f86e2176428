package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one traced interval: a call the benchmark made into a layer.
// Spans of one operation or request share op; parent is the enclosing
// span's id (0 for a root).
type span struct {
	id, parent int
	name       string
	op         int64
	start, end time.Duration // since the tracer's base
	args       map[string]any
}

// tracer keeps spans in memory; write emits them as trace-event JSON at
// exit. A nil *tracer records nothing, so an untraced pass runs the same
// code with a nil check per span.
type tracer struct {
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// begin opens a span now and returns its id.
func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, name: name, op: op, start: time.Since(t.base)})
	return len(t.spans)
}

// end closes span id now.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].end = time.Since(t.base)
}

// add records a span whose interval was measured elsewhere.
func (t *tracer) add(name string, parent int, op int64, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, name: name, op: op,
		start: start.Sub(t.base), end: end.Sub(t.base)})
	return len(t.spans)
}

// annotate attaches a key/value to span id.
func (t *tracer) annotate(id int, k string, v any) {
	if t == nil || id == 0 {
		return
	}
	s := &t.spans[id-1]
	if s.args == nil {
		s.args = map[string]any{}
	}
	s.args[k] = v
}

func (t *tracer) get(id int) *span { return &t.spans[id-1] }

func (s *span) dur() time.Duration { return s.end - s.start }

// children maps each span id to the ids of its direct children.
func (t *tracer) children() map[int][]int {
	kids := map[int][]int{}
	for _, s := range t.spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s.id)
		}
	}
	return kids
}

// selfTime is a span's duration minus the part of it its child spans
// cover (overlapping children are counted once).
func (t *tracer) selfTime(id int, kids map[int][]int) time.Duration {
	s := t.get(id)
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids[id] {
		c := t.get(k)
		a, b := max(c.start, s.start), min(c.end, s.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, reach := time.Duration(0), s.start
	for _, v := range ivs {
		if v.b <= reach {
			continue
		}
		covered += v.b - max(v.a, reach)
		reach = v.b
	}
	return s.dur() - covered
}

// named returns the ids of all spans with the given name, in order.
func (t *tracer) named(name string) []int {
	var ids []int
	for _, s := range t.spans {
		if s.name == name {
			ids = append(ids, s.id)
		}
	}
	return ids
}

// write emits the spans in the Chrome trace-event format (complete "X"
// events, microseconds), readable by chrome://tracing or Perfetto. Each
// event's args carry its op id, span id, parent id and self time.
func (t *tracer) write(path string, pid int) error {
	if t == nil {
		return nil
	}
	kids := t.children()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, 0, len(t.spans))
	for i := range t.spans {
		s := &t.spans[i]
		args := map[string]any{"op": s.op, "span": s.id, "parent": s.parent,
			"self_us": float64(t.selfTime(s.id, kids)) / 1e3}
		for k, v := range s.args {
			args[k] = v
		}
		tid, _ := s.args["conn"].(int)
		evs = append(evs, event{Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3,
			Dur: float64(s.dur()) / 1e3, Pid: pid, Tid: tid, Args: args})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

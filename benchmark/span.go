package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"dbtf/internal/trace"
)

// span is one interval the benchmark timed around a call it made into a
// layer, or folded from the program's own trace events. Spans of one op
// share Op; Parent is the ID of the span that caused this one, -1 for an
// op's root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps every span in memory until the run ends. A nil recorder
// is tracing switched off: every method is a no-op, so the end-to-end runs
// share the traced runs' code and pay one nil check.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span now and returns its ID.
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	return r.add(name, parent, op, time.Now().UnixNano(), 0)
}

// end closes a span opened by begin.
func (r *recorder) end(id int) { r.endAt(id, time.Now().UnixNano()) }

func (r *recorder) endAt(id int, end int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans[id].End = end
	r.mu.Unlock()
}

// add records a span whose bounds are already known.
func (r *recorder) add(name string, parent, op int, start, end int64) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
	return id
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeFile dumps the spans as JSON lines.
func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			_ = f.Close() // the encode error is the one to report
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return err
	}
	return f.Close()
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval its children cover. Children are clipped to the parent and
// overlapping children are counted once, so a parent never goes negative
// and concurrent children cannot be subtracted twice.
func selfTimes(spans []span) []int64 {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for _, p := range spans {
		kids := children[p.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, edge := int64(0), p.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, p.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[p.ID] = p.dur() - covered
	}
	return self
}

// eventBuffer collects one op's engine events from Options.Tracer; the
// tracer serializes writes, so no lock is needed.
type eventBuffer struct{ events []*trace.Event }

func (b *eventBuffer) Write(ev *trace.Event) error { b.events = append(b.events, ev); return nil }
func (b *eventBuffer) Close() error                { return nil }

// stageOf maps an engine span label to its stage: "eval:B" → "eval".
func stageOf(name string) string {
	if i := strings.IndexByte(name, ':'); i >= 0 {
		return name[:i]
	}
	return name
}

// foldEvents turns one run's begin/end event pairs into spans under
// parent, on the wall clock: run ⊃ iteration ⊃ stage and driver sections.
// It returns the run_end event's cumulative Stats snapshot, nil when the
// stream has none.
func foldEvents(r *recorder, parent, op int, events []*trace.Event) *trace.StatsDelta {
	var final *trace.StatsDelta
	stack := []int{parent}
	open := func(name string, ev *trace.Event) {
		stack = append(stack, r.add(name, stack[len(stack)-1], op, ev.WallNanos, 0))
	}
	for _, ev := range events {
		switch ev.Type {
		case trace.RunBegin:
			open("run", ev)
		case trace.IterationBegin:
			open("iteration", ev)
		case trace.StageBegin, trace.DriverBegin:
			open(stageOf(ev.Name), ev)
		case trace.RunEnd, trace.IterationEnd, trace.StageEnd, trace.DriverEnd:
			if ev.Type == trace.RunEnd {
				final = ev.Delta
			}
			if len(stack) == 1 {
				continue // an end without a begin: the tail of a resumed stream
			}
			r.endAt(stack[len(stack)-1], ev.WallNanos)
			stack = stack[:len(stack)-1]
		}
	}
	return final
}

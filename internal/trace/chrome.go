package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Chrome converts the event stream into Chrome's trace_event JSON array
// (loadable in chrome://tracing and Perfetto). The simulated clock is the
// timeline: slices show where the modeled M-machine makespan goes, which
// is the view the paper's scalability figures argue about.
//
// Lane layout (all under one process):
//
//	tid 0      "driver"     — run and iteration spans, driver sections,
//	                          per-stage network charges, traffic instants
//	tid m+1    "machine m"  — one compute slice per stage per machine
//	                          (the stage's straggle is visible as ragged
//	                          right edges), plus retry/loss
//	                          instants on the machine they hit
//
// Timestamps are the simulated clock in microseconds (trace_event's unit);
// wall-clock timestamps ride along in each slice's args.
type Chrome struct {
	bw *bufio.Writer
	w  io.Writer
	n  int // events written, for comma placement

	namedTids map[int]bool
	// open span begin events, keyed as the validator keys them: stages
	// and driver sections never overlap themselves, so one slot each.
	stageBegin  *Event
	driverBegin *Event
	iterBegin   map[int]*Event
	runBegin    *Event
	werr        error
}

// NewChrome returns a sink writing the trace_event array to w. If w is an
// io.Closer, Close closes it after completing the array.
func NewChrome(w io.Writer) *Chrome {
	return &Chrome{
		bw:        bufio.NewWriter(w),
		w:         w,
		namedTids: map[int]bool{},
		iterBegin: map[int]*Event{},
	}
}

const driverTid = 0

func machineTid(machine int) int { return machine + 1 }

// chromeEvent is one trace_event entry. Args maps are encoded with sorted
// keys by encoding/json, keeping the output byte-deterministic.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Cat  string         `json:"cat,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

func micros(nanos int64) float64 { return float64(nanos) / 1e3 }

func (s *Chrome) put(ce chromeEvent) {
	if s.werr != nil {
		return
	}
	raw, err := json.Marshal(ce)
	if err != nil {
		s.werr = err
		return
	}
	if s.n == 0 {
		_, s.werr = s.bw.WriteString("[\n")
	} else {
		_, s.werr = s.bw.WriteString(",\n")
	}
	if s.werr == nil {
		_, s.werr = s.bw.Write(raw)
	}
	s.n++
}

// nameTid emits the thread metadata for a lane the first time it is used,
// so Perfetto labels and orders the lanes.
func (s *Chrome) nameTid(tid int) {
	if s.namedTids[tid] {
		return
	}
	s.namedTids[tid] = true
	name := "driver"
	if tid != driverTid {
		name = fmt.Sprintf("machine %d", tid-1)
	}
	s.put(chromeEvent{Name: "thread_name", Ph: "M", Pid: 0, Tid: tid, Args: map[string]any{"name": name}})
	s.put(chromeEvent{Name: "thread_sort_index", Ph: "M", Pid: 0, Tid: tid, Args: map[string]any{"sort_index": tid}})
}

func (s *Chrome) slice(name, cat string, tid int, beginSim, durNanos int64, args map[string]any) {
	s.nameTid(tid)
	s.put(chromeEvent{Name: name, Ph: "X", Cat: cat, Pid: 0, Tid: tid, Ts: micros(beginSim), Dur: micros(durNanos), Args: args})
}

func (s *Chrome) instant(name, cat string, tid int, sim int64, args map[string]any) {
	s.nameTid(tid)
	s.put(chromeEvent{Name: name, Ph: "i", Cat: cat, Pid: 0, Tid: tid, Ts: micros(sim), S: "t", Args: args})
}

// Write converts one trace event into its timeline form. Spans buffer
// their begin event and emit a complete ("X") slice at the matching end,
// which keeps the exporter streaming with O(open spans) memory.
func (s *Chrome) Write(ev *Event) error {
	switch ev.Type {
	case RunBegin:
		s.runBegin = ev
	case RunEnd:
		if s.runBegin != nil {
			s.slice(s.runBegin.Name, "run", driverTid, s.runBegin.SimNanos, ev.SimNanos-s.runBegin.SimNanos,
				map[string]any{"machines": s.runBegin.Machines, "wall_ns": ev.WallNanos - s.runBegin.WallNanos})
			s.runBegin = nil
		}
	case IterationBegin:
		s.iterBegin[ev.Iteration] = ev
	case IterationEnd:
		if b := s.iterBegin[ev.Iteration]; b != nil {
			args := map[string]any{"iteration": ev.Iteration}
			if ev.Error != nil {
				args["error"] = *ev.Error
			}
			if ev.ErrorDelta != nil {
				args["error_delta"] = *ev.ErrorDelta
			}
			if ev.Flips != nil {
				args["flips"] = *ev.Flips
			}
			s.slice(fmt.Sprintf("iteration %d", ev.Iteration), "iteration", driverTid, b.SimNanos, ev.SimNanos-b.SimNanos, args)
			delete(s.iterBegin, ev.Iteration)
		}
	case StageBegin:
		s.stageBegin = ev
	case StageEnd:
		b := s.stageBegin
		s.stageBegin = nil
		if b == nil {
			return nil
		}
		name := ev.Name
		if name == "" {
			name = fmt.Sprintf("stage %d", ev.Stage)
		}
		for m, nanos := range ev.PerMachineNanos {
			if nanos <= 0 {
				continue
			}
			s.slice(name, "stage", machineTid(m), b.SimNanos, nanos,
				map[string]any{"stage": ev.Stage, "tasks": b.Tasks})
		}
		if ev.Delta != nil && ev.Delta.NetworkNanos > 0 {
			// The network charge lands after the compute makespan: the
			// boundary where the stage's traffic is priced.
			s.slice("net:"+name, "network", driverTid, ev.SimNanos-ev.Delta.NetworkNanos, ev.Delta.NetworkNanos,
				map[string]any{
					"stage":           ev.Stage,
					"shuffled_bytes":  ev.Delta.ShuffledBytes,
					"broadcast_bytes": ev.Delta.BroadcastBytes,
					"collected_bytes": ev.Delta.CollectedBytes,
				})
		}
	case DriverBegin:
		s.driverBegin = ev
	case DriverEnd:
		if b := s.driverBegin; b != nil {
			name := ev.Name
			if name == "" {
				name = "driver"
			}
			s.slice(name, "driver", driverTid, b.SimNanos, ev.DurNanos, nil)
			s.driverBegin = nil
		}
	case Shuffle, Broadcast, Collect, Checkpoint:
		s.instant(string(ev.Type), "traffic", driverTid, ev.SimNanos, map[string]any{"bytes": ev.Bytes})
	case Retry:
		s.instant(fmt.Sprintf("retry task %d", ev.Task), "fault", machineTid(ev.Machine), ev.SimNanos,
			map[string]any{"attempt": ev.Attempt, "stage": ev.Stage})
	case MachineLoss, MachineRejoin:
		s.instant(string(ev.Type), "liveness", machineTid(ev.Machine), ev.SimNanos,
			map[string]any{"recovery_bytes": ev.Bytes, "stage": ev.Stage})
	case Wire:
		s.instant("wire:"+ev.Name, "wire", driverTid, ev.SimNanos,
			map[string]any{"bytes": ev.Bytes, "stage": ev.Stage})
	}
	return s.werr
}

// Close completes the JSON array and closes the underlying writer when it
// is closeable.
func (s *Chrome) Close() error {
	if s.werr == nil {
		if s.n == 0 {
			_, s.werr = s.bw.WriteString("[")
		}
		if s.werr == nil {
			_, s.werr = s.bw.WriteString("\n]\n")
		}
	}
	err := s.werr
	if ferr := s.bw.Flush(); err == nil {
		err = ferr
	}
	if c, ok := s.w.(io.Closer); ok {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

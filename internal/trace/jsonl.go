package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// JSONL is the durable analysis sink: one JSON object per line, in
// emission order. The format is append-only and grep-friendly; validate a
// written stream with ValidateJSONL (or cmd/dbtf-tracecheck).
type JSONL struct {
	bw  *bufio.Writer
	enc *json.Encoder
	w   io.Writer
}

// NewJSONL returns a sink writing one event per line to w. If w is an
// io.Closer, Close closes it after flushing.
func NewJSONL(w io.Writer) *JSONL {
	bw := bufio.NewWriter(w)
	return &JSONL{bw: bw, enc: json.NewEncoder(bw), w: w}
}

// Write encodes one event as a JSON line.
func (s *JSONL) Write(ev *Event) error { return s.enc.Encode(ev) }

// Borrows reports that the sink is done with an event once it is encoded.
func (*JSONL) Borrows() bool { return true }

// Close flushes buffered lines and closes the underlying writer when it
// is closeable.
func (s *JSONL) Close() error {
	err := s.bw.Flush()
	if c, ok := s.w.(io.Closer); ok {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// DecodeJSONL parses a JSONL event stream. Unknown fields and unknown
// event types are errors: the schema is closed so analysis tools can rely
// on it.
func DecodeJSONL(r io.Reader) ([]*Event, error) {
	var events []*Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		ev := &Event{}
		if err := dec.Decode(ev); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		if !knownTypes[ev.Type] {
			return nil, fmt.Errorf("trace: line %d: unknown event type %q", line, ev.Type)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return events, nil
}

var knownTypes = map[Type]bool{
	RunBegin: true, RunEnd: true,
	IterationBegin: true, IterationEnd: true,
	StageBegin: true, StageEnd: true,
	DriverBegin: true, DriverEnd: true,
	Shuffle: true, Broadcast: true, Collect: true, Checkpoint: true,
	Retry: true, MachineLoss: true, MachineRejoin: true,
	Wire: true,
}

// Summary reports what a validated stream contained.
type Summary struct {
	// Events is the total event count.
	Events int
	// Runs is the number of completed run spans.
	Runs int
	// Stages is the number of completed stage spans.
	Stages int
	// ByType counts events per type.
	ByType map[Type]int
}

// Validate checks the structural invariants of an event stream:
//
//   - sequence numbers strictly increase;
//   - the simulated clock is monotone non-decreasing within a run (a
//     RunBegin may reset it — the engine resets its clock per run);
//   - begin/end spans match: stages and driver sections pair up by index
//     and never nest or overlap each other, iteration spans nest properly
//     around stages, run spans enclose everything else;
//   - machine losses and rejoins occur only at stage boundaries (never
//     inside an open stage or driver span);
//   - StageEnd events carry a Stats delta;
//   - an IterationEnd whose commits flipped no entry reports no change in
//     the error (the objective is carried through the flips);
//   - at every RunEnd, folding the run's events with StatsDelta.Observe
//     reproduces the RunEnd's cumulative snapshot exactly.
//
// The first violation is returned as an error naming the offending
// sequence number.
func Validate(events []*Event) (*Summary, error) {
	sum := &Summary{ByType: map[Type]int{}}
	var (
		haveSeq    bool
		lastSeq    int64
		lastSim    int64
		openStage  *Event
		openDriver *Event
		openIters  []*Event
		inRun      bool
		acc        StatsDelta
	)
	for _, ev := range events {
		sum.Events++
		sum.ByType[ev.Type]++
		if !knownTypes[ev.Type] {
			return nil, fmt.Errorf("trace: seq %d: unknown event type %q", ev.Seq, ev.Type)
		}
		if haveSeq && ev.Seq <= lastSeq {
			return nil, fmt.Errorf("trace: seq %d after seq %d: sequence numbers must strictly increase", ev.Seq, lastSeq)
		}
		lastSeq, haveSeq = ev.Seq, true
		if ev.Type == RunBegin {
			lastSim = ev.SimNanos // the engine resets its clock per run
		}
		if ev.SimNanos < lastSim {
			return nil, fmt.Errorf("trace: seq %d (%s): simulated clock went backwards (%d < %d)", ev.Seq, ev.Type, ev.SimNanos, lastSim)
		}
		lastSim = ev.SimNanos

		switch ev.Type {
		case RunBegin:
			if inRun {
				return nil, fmt.Errorf("trace: seq %d: run_begin inside an open run", ev.Seq)
			}
			inRun = true
			acc = StatsDelta{}
		case RunEnd:
			if !inRun {
				return nil, fmt.Errorf("trace: seq %d: run_end without run_begin", ev.Seq)
			}
			if openStage != nil || openDriver != nil || len(openIters) > 0 {
				return nil, fmt.Errorf("trace: seq %d: run_end with open spans", ev.Seq)
			}
			if ev.Delta == nil {
				return nil, fmt.Errorf("trace: seq %d: run_end without a stats snapshot", ev.Seq)
			}
			if acc != *ev.Delta {
				return nil, fmt.Errorf("trace: seq %d: folded event deltas %+v do not reproduce the run's stats snapshot %+v", ev.Seq, acc, *ev.Delta)
			}
			inRun = false
			sum.Runs++
		case IterationBegin:
			if openStage != nil || openDriver != nil {
				return nil, fmt.Errorf("trace: seq %d: iteration_begin inside an open stage or driver span", ev.Seq)
			}
			openIters = append(openIters, ev)
		case IterationEnd:
			if len(openIters) == 0 {
				return nil, fmt.Errorf("trace: seq %d: iteration_end without iteration_begin", ev.Seq)
			}
			top := openIters[len(openIters)-1]
			if top.Iteration != ev.Iteration {
				return nil, fmt.Errorf("trace: seq %d: iteration_end %d does not match open iteration %d", ev.Seq, ev.Iteration, top.Iteration)
			}
			if openStage != nil || openDriver != nil {
				return nil, fmt.Errorf("trace: seq %d: iteration_end inside an open stage or driver span", ev.Seq)
			}
			if ev.Flips != nil && *ev.Flips == 0 && ev.ErrorDelta != nil && *ev.ErrorDelta != 0 {
				return nil, fmt.Errorf("trace: seq %d: iteration %d flipped no entry yet moved the error by %d", ev.Seq, ev.Iteration, *ev.ErrorDelta)
			}
			openIters = openIters[:len(openIters)-1]
		case StageBegin:
			if openStage != nil {
				return nil, fmt.Errorf("trace: seq %d: stage_begin while stage %d is open (stages never nest)", ev.Seq, openStage.Stage)
			}
			if openDriver != nil {
				return nil, fmt.Errorf("trace: seq %d: stage_begin inside an open driver span", ev.Seq)
			}
			openStage = ev
		case StageEnd:
			if openStage == nil {
				return nil, fmt.Errorf("trace: seq %d: stage_end without stage_begin", ev.Seq)
			}
			if openStage.Stage != ev.Stage {
				return nil, fmt.Errorf("trace: seq %d: stage_end %d does not match open stage %d", ev.Seq, ev.Stage, openStage.Stage)
			}
			if ev.Delta == nil {
				return nil, fmt.Errorf("trace: seq %d: stage_end without a stats delta", ev.Seq)
			}
			openStage = nil
			sum.Stages++
		case DriverBegin:
			if openDriver != nil {
				return nil, fmt.Errorf("trace: seq %d: driver_begin inside an open driver span", ev.Seq)
			}
			if openStage != nil {
				return nil, fmt.Errorf("trace: seq %d: driver_begin inside an open stage", ev.Seq)
			}
			openDriver = ev
		case DriverEnd:
			if openDriver == nil {
				return nil, fmt.Errorf("trace: seq %d: driver_end without driver_begin", ev.Seq)
			}
			openDriver = nil
		case Retry:
			if openStage == nil {
				return nil, fmt.Errorf("trace: seq %d: retry outside an open stage", ev.Seq)
			}
		case MachineLoss, MachineRejoin:
			if openStage != nil || openDriver != nil {
				return nil, fmt.Errorf("trace: seq %d: %s inside an open span (losses happen at stage boundaries)", ev.Seq, ev.Type)
			}
			if ev.Machine < 0 {
				return nil, fmt.Errorf("trace: seq %d: %s without a machine", ev.Seq, ev.Type)
			}
		}
		acc.Observe(ev)
	}
	if openStage != nil || openDriver != nil || len(openIters) > 0 || inRun {
		return nil, fmt.Errorf("trace: stream ends with open spans (stage=%v driver=%v iterations=%d run=%v)",
			openStage != nil, openDriver != nil, len(openIters), inRun)
	}
	return sum, nil
}

// ValidateJSONL decodes and validates a JSONL stream in one step.
func ValidateJSONL(r io.Reader) (*Summary, error) {
	events, err := DecodeJSONL(r)
	if err != nil {
		return nil, err
	}
	return Validate(events)
}

package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// fakeClock returns a deterministic wall clock stepping 1µs per call.
func fakeClock() func() time.Time {
	var n int64
	return func() time.Time {
		n++
		return time.Unix(0, n*1000)
	}
}

func TestNilTracerFastPath(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	tr.Emit(NewEvent(StageBegin)) // must not panic
	if err := tr.Err(); err != nil {
		t.Fatalf("nil tracer Err: %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("nil tracer Close: %v", err)
	}
	if New(nil) != nil {
		t.Fatal("New(nil) should yield the nil (disabled) tracer")
	}
	// The disabled path must not allocate: the nil check is the entire
	// cost at every emission site.
	allocs := testing.AllocsPerRun(100, func() {
		if tr.Enabled() {
			tr.Emit(NewEvent(StageBegin))
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocates %v per emission site", allocs)
	}
}

func TestEmitAssignsSeqAndWall(t *testing.T) {
	buf := &Buffer{}
	tr := New(buf, WithClock(fakeClock()))
	for i := 0; i < 3; i++ {
		tr.Emit(NewEvent(Shuffle))
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	tr.Emit(NewEvent(Shuffle)) // dropped after Close
	if len(buf.Events) != 3 {
		t.Fatalf("got %d events, want 3", len(buf.Events))
	}
	for i, ev := range buf.Events {
		if ev.Seq != int64(i) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		if ev.WallNanos != int64(i+1)*1000 {
			t.Fatalf("event %d has wall %d, want %d", i, ev.WallNanos, (i+1)*1000)
		}
	}
}

// TestObserveFoldReproducesSnapshot drives the attribution contract on a
// hand-built stream: every counter mutation appears in exactly one event
// and the fold equals the RunEnd snapshot.
func TestObserveFoldReproducesSnapshot(t *testing.T) {
	events := validStream()
	sum, err := Validate(events)
	if err != nil {
		t.Fatalf("valid stream rejected: %v", err)
	}
	if sum.Runs != 1 || sum.Stages != 2 {
		t.Fatalf("summary %+v, want 1 run / 2 stages", sum)
	}
}

// validStream builds a minimal self-consistent run: two stages inside one
// iteration, a driver section, traffic, a retry, and a machine loss at a
// stage boundary. The RunEnd snapshot is the exact fold.
func validStream() []*Event {
	var seq int64
	mk := func(typ Type, f func(*Event)) *Event {
		ev := NewEvent(typ)
		ev.Seq = seq
		seq++
		ev.WallNanos = seq
		if f != nil {
			f(ev)
		}
		return ev
	}
	return []*Event{
		mk(RunBegin, func(e *Event) { e.Machines = 2; e.Name = "test" }),
		mk(IterationBegin, func(e *Event) { e.Iteration = 1 }),
		mk(Shuffle, func(e *Event) { e.Bytes = 100 }),
		mk(StageBegin, func(e *Event) { e.Stage = 0; e.Tasks = 4; e.Name = "build" }),
		mk(Retry, func(e *Event) { e.Stage = 0; e.Machine = 1; e.Task = 2; e.Attempt = 1 }),
		mk(StageEnd, func(e *Event) {
			e.Stage = 0
			e.SimNanos = 50
			e.Delta = &StatsDelta{ShuffledBytes: 100, ComputeNanos: 30, NetworkNanos: 20, TaskNanos: 40, Retries: 1, InjectedFaults: 1}
			e.PerMachineNanos = []int64{30, 10}
		}),
		mk(MachineLoss, func(e *Event) { e.Stage = 1; e.Machine = 1; e.Bytes = 8; e.SimNanos = 50 }),
		mk(Broadcast, func(e *Event) { e.Bytes = 64; e.SimNanos = 50 }),
		mk(StageBegin, func(e *Event) { e.Stage = 1; e.Tasks = 4; e.SimNanos = 50 }),
		mk(StageEnd, func(e *Event) {
			e.Stage = 1
			e.SimNanos = 120
			e.Delta = &StatsDelta{BroadcastBytes: 72, ComputeNanos: 40, NetworkNanos: 30, TaskNanos: 40, Recoveries: 1}
		}),
		mk(DriverBegin, func(e *Event) { e.SimNanos = 120; e.Name = "commit" }),
		mk(DriverEnd, func(e *Event) { e.SimNanos = 125; e.DurNanos = 5 }),
		mk(Collect, func(e *Event) { e.Bytes = 32; e.SimNanos = 125 }),
		mk(IterationEnd, func(e *Event) {
			e.Iteration, e.SimNanos = 1, 125
			e.Error, e.ErrorDelta, e.Flips = new(int64), new(int64), new(int64)
		}),
		mk(RunEnd, func(e *Event) {
			e.SimNanos = 125
			e.Delta = &StatsDelta{
				ShuffledBytes: 100, BroadcastBytes: 72, CollectedBytes: 32,
				Stages: 2, Tasks: 8,
				ComputeNanos: 70, NetworkNanos: 50, DriverNanos: 5, TaskNanos: 80,
				Retries: 1, InjectedFaults: 1, MachineLosses: 1, Recoveries: 1,
			}
		}),
	}
}

func TestValidateRejections(t *testing.T) {
	type mut func([]*Event) []*Event
	cases := []struct {
		name string
		mut  mut
		want string
	}{
		{"seq regression", func(evs []*Event) []*Event {
			evs[5].Seq = evs[4].Seq
			return evs
		}, "strictly increase"},
		{"clock backwards", func(evs []*Event) []*Event {
			evs[9].SimNanos = 10 // StageEnd earlier than its begin's 50
			return evs
		}, "backwards"},
		{"loss inside stage", func(evs []*Event) []*Event {
			// Move the machine loss after the second StageBegin.
			evs[6], evs[8] = evs[8], evs[6]
			evs[6].Seq, evs[8].Seq = evs[8].Seq, evs[6].Seq
			return evs
		}, "stage boundaries"},
		{"stage end mismatch", func(evs []*Event) []*Event {
			evs[5].Stage = 7
			return evs
		}, "does not match"},
		{"missing stage delta", func(evs []*Event) []*Event {
			evs[5].Delta = nil
			return evs
		}, "without a stats delta"},
		{"fold mismatch", func(evs []*Event) []*Event {
			evs[len(evs)-1].Delta.ShuffledBytes += 1
			return evs
		}, "do not reproduce"},
		{"open spans at EOF", func(evs []*Event) []*Event {
			return evs[:len(evs)-1]
		}, "open spans"},
		{"error moved by no flip", func(evs []*Event) []*Event {
			*evs[len(evs)-2].ErrorDelta = 3
			return evs
		}, "flipped no entry"},
		{"retry outside stage", func(evs []*Event) []*Event {
			evs[4], evs[3] = evs[3], evs[4]
			evs[4].Seq, evs[3].Seq = evs[3].Seq, evs[4].Seq
			return evs
		}, "outside an open stage"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Validate(tc.mut(validStream()))
			if err == nil {
				t.Fatalf("mutated stream accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := New(NewJSONL(&buf), WithClock(fakeClock()))
	for _, ev := range validStream() {
		ev.Seq = 0 // re-assigned by the tracer
		tr.Emit(ev)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	sum, err := ValidateJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("round-tripped stream invalid: %v", err)
	}
	if sum.Runs != 1 || sum.Stages != 2 {
		t.Fatalf("summary %+v after round trip", sum)
	}
}

func TestDecodeJSONLRejectsUnknown(t *testing.T) {
	if _, err := DecodeJSONL(strings.NewReader(`{"type":"warp_drive","seq":0,"wall_ns":1,"sim_ns":0,"stage":-1,"machine":-1,"task":-1}`)); err == nil {
		t.Fatal("unknown event type accepted")
	}
	if _, err := DecodeJSONL(strings.NewReader(`{"type":"shuffle","seq":0,"wall_ns":1,"sim_ns":0,"stage":-1,"machine":-1,"task":-1,"surprise":3}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestChromeSinkProducesValidJSON(t *testing.T) {
	var buf bytes.Buffer
	tr := New(NewChrome(&buf), WithClock(fakeClock()))
	for _, ev := range validStream() {
		ev.Seq = 0
		tr.Emit(ev)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("chrome output is not a JSON array: %v\n%s", err, buf.String())
	}
	if len(events) == 0 {
		t.Fatal("chrome output empty")
	}
	var sawMachineSlice, sawDriverLane bool
	for _, e := range events {
		switch {
		case e["ph"] == "X" && e["tid"].(float64) > 0:
			sawMachineSlice = true
		case e["ph"] == "M" && e["tid"].(float64) == 0:
			sawDriverLane = true
		}
	}
	if !sawMachineSlice {
		t.Fatal("no per-machine stage slice in chrome output")
	}
	if !sawDriverLane {
		t.Fatal("driver lane metadata missing")
	}
}

func TestChromeSinkEmptyStream(t *testing.T) {
	var buf bytes.Buffer
	s := NewChrome(&buf)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var events []any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("empty chrome trace invalid: %v (%q)", err, buf.String())
	}
	if len(events) != 0 {
		t.Fatalf("empty stream produced %d events", len(events))
	}
}

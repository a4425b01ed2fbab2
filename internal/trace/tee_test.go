package trace

import (
	"bytes"
	"errors"
	"testing"
)

// failSink errors on demand to exercise tee error propagation.
type failSink struct {
	writeErr error
	closeErr error
	writes   int
	closed   int
}

func (s *failSink) Write(*Event) error { s.writes++; return s.writeErr }
func (s *failSink) Close() error       { s.closed++; return s.closeErr }

func TestTeeFansOutToAllSinks(t *testing.T) {
	a, b := &Buffer{}, &Buffer{}
	tr := New(NewTee(a, b))
	tr.Emit(&Event{Type: RunBegin})
	tr.Emit(&Event{Type: RunEnd})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if len(a.Events) != 2 || len(b.Events) != 2 {
		t.Fatalf("sinks saw %d/%d events, want 2/2", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d diverged between tee branches", i)
		}
	}
}

func TestTeeFirstErrorWinsButAllSinksWritten(t *testing.T) {
	errA := errors.New("sink a failed")
	a := &failSink{writeErr: errA}
	b := &failSink{writeErr: errors.New("sink b failed")}
	c := &failSink{}
	tee := NewTee(a, b, c)
	if err := tee.Write(&Event{}); !errors.Is(err, errA) {
		t.Fatalf("Write error = %v, want the first sink's", err)
	}
	if a.writes != 1 || b.writes != 1 || c.writes != 1 {
		t.Fatalf("writes %d/%d/%d, want every sink reached", a.writes, b.writes, c.writes)
	}

	errClose := errors.New("close failed")
	a.closeErr = errClose
	if err := tee.Close(); !errors.Is(err, errClose) {
		t.Fatalf("Close error = %v, want the first sink's", err)
	}
	if a.closed != 1 || b.closed != 1 || c.closed != 1 {
		t.Fatalf("closes %d/%d/%d, want every sink closed", a.closed, b.closed, c.closed)
	}
}

// TestTeeBorrowsOnlyWhenEveryBranchDoes: a tee is done with an event when
// Write returns only if every branch is, so one branch that keeps events
// makes the tracer hand the tee copies.
func TestTeeBorrowsOnlyWhenEveryBranchDoes(t *testing.T) {
	var w bytes.Buffer
	for i, tc := range []struct {
		sink Sink
		want bool
	}{
		{NewJSONL(&w), true},
		{NewTee(NewJSONL(&w), NewJSONL(&w)), true},
		{NewTee(NewJSONL(&w), &Buffer{}), false},
		{NewTee(NewTee(NewJSONL(&w)), NewChrome(&w)), false},
		{&Buffer{}, false},
	} {
		if got := New(tc.sink).borrows; got != tc.want {
			t.Errorf("sink %d: tracer borrows %v, want %v", i, got, tc.want)
		}
	}
}

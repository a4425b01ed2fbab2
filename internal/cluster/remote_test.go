package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"dbtf/internal/trace"
	"dbtf/internal/transport"
)

// fakeTransport is an in-process Transport for seam tests: tasks execute
// inline, liveness events are queued by the test, and wire counters are
// advanced artificially.
type fakeTransport struct {
	machines int
	pending  []transport.LivenessEvent
	runErr   error
	run      func(spec transport.Spec, task int) ([]byte, error)
	sent     atomic.Int64
	recvd    atomic.Int64
	closed   bool
}

func (f *fakeTransport) Machines() int { return f.machines }

func (f *fakeTransport) Membership(ctx context.Context) []transport.LivenessEvent {
	ev := f.pending
	f.pending = nil
	return ev
}

func (f *fakeTransport) PushState(ctx context.Context, kind transport.StateKind, payload []byte) error {
	f.sent.Add(int64(len(payload)))
	return nil
}

func (f *fakeTransport) Run(ctx context.Context, spec transport.Spec, deliver func(transport.TaskResult) error) error {
	if f.runErr != nil {
		return f.runErr
	}
	for t := 0; t < spec.Tasks; t++ {
		var payload []byte
		if f.run != nil {
			var err error
			payload, err = f.run(spec, t)
			if err != nil {
				return err
			}
		}
		f.sent.Add(10)
		f.recvd.Add(int64(len(payload)) + 10)
		if err := deliver(transport.TaskResult{Task: t, Machine: t % f.machines, Nanos: 1000, Payload: payload}); err != nil {
			return err
		}
	}
	return nil
}

func (f *fakeTransport) WireBytes() (int64, int64) { return f.sent.Load(), f.recvd.Load() }
func (f *fakeTransport) Close() error              { f.closed = true; return nil }

// discard is the sink of a seam test that only watches the books.
func discard(int, []byte) error { return nil }

func TestRunStageRemoteDeliversAndAccounts(t *testing.T) {
	ft := &fakeTransport{machines: 3, run: func(spec transport.Spec, task int) ([]byte, error) {
		return []byte{byte(task)}, nil
	}}
	c := New(Config{Machines: 3, Transport: ft})
	var got []int
	spec := transport.Spec{Name: "eval:A", Kind: transport.KindEval, Tasks: 5}
	err := c.RunStage(context.Background(), spec, func(int) error {
		t.Fatal("local fn ran on the remote path")
		return nil
	}, func(task int, payload []byte) error {
		if len(payload) != 1 || int(payload[0]) != task {
			return fmt.Errorf("task %d got payload %v", task, payload)
		}
		got = append(got, task)
		return nil
	})
	if err != nil {
		t.Fatalf("RunStage: %v", err)
	}
	if len(got) != 5 {
		t.Fatalf("sink saw %d tasks, want 5", len(got))
	}
	st := c.Stats()
	if st.Stages != 1 || st.Tasks != 5 {
		t.Fatalf("Stages=%d Tasks=%d, want 1/5", st.Stages, st.Tasks)
	}
	if st.TaskNanos != 5000 {
		t.Fatalf("TaskNanos=%d, want 5000 (executor-measured nanos)", st.TaskNanos)
	}
}

// TestPushStateEncodesOnlyForATransport pins the contract that lets clients
// replicate state without asking which backend they run on: the simulated
// backend never calls the encoder (a push costs nothing), a transport gets
// exactly the encoded blob, and an encoder failure is a push failure.
func TestPushStateEncodesOnlyForATransport(t *testing.T) {
	blob := func() ([]byte, error) { return []byte("state"), nil }
	sim := New(Config{Machines: 2})
	err := sim.PushState(context.Background(), transport.StateFactors, func() ([]byte, error) {
		t.Fatal("encoder ran on the simulated backend")
		return nil, nil
	})
	if err != nil {
		t.Fatalf("simulated PushState: %v", err)
	}
	ft := &fakeTransport{machines: 2}
	remote := New(Config{Machines: 2, Transport: ft})
	if err := remote.PushState(context.Background(), transport.StateFactors, blob); err != nil {
		t.Fatalf("remote PushState: %v", err)
	}
	if got := ft.sent.Load(); got != int64(len("state")) {
		t.Fatalf("transport received %d bytes, want %d", got, len("state"))
	}
	err = remote.PushState(context.Background(), transport.StateSetup, func() ([]byte, error) {
		return nil, errors.New("cannot encode")
	})
	if err == nil || !strings.Contains(err.Error(), "cannot encode") || ft.sent.Load() != int64(len("state")) {
		t.Fatalf("failed encoder: err=%v sent=%d, want the encoder's error and nothing shipped", err, ft.sent.Load())
	}
}

func TestRunStageSimulatedPathUnchanged(t *testing.T) {
	c := New(Config{Machines: 2})
	var ran atomic.Int64
	spec := transport.Spec{Name: "eval:B", Kind: transport.KindEval, Mode: 1, Tasks: 4}
	err := c.RunStage(context.Background(), spec, func(task int) error {
		ran.Add(1)
		return nil
	}, func(int, []byte) error {
		t.Fatal("sink ran on the simulated path")
		return nil
	})
	if err != nil || ran.Load() != 4 {
		t.Fatalf("err=%v ran=%d, want nil/4", err, ran.Load())
	}
}

func TestRunStageRemoteErrorNamesStage(t *testing.T) {
	ft := &fakeTransport{machines: 2, runErr: errors.New("socket torn")}
	c := New(Config{Machines: 2, Transport: ft})
	err := c.RunStage(context.Background(), transport.Spec{Name: "total-error", Kind: transport.KindTotalError, Tasks: 2}, nil, discard)
	if err == nil || !strings.Contains(err.Error(), `stage "total-error"`) || !strings.Contains(err.Error(), "socket torn") {
		t.Fatalf("got %v, want stage-attributed transport error", err)
	}
}

func TestApplyLivenessLossAndRejoin(t *testing.T) {
	buf := &trace.Buffer{}
	tr := trace.New(buf)
	ft := &fakeTransport{machines: 3}
	c := New(Config{Machines: 3, Transport: ft, Tracer: tr})
	c.BroadcastState(100) // the working set a recovering machine re-fetches

	var lost []int
	c.OnMachineLoss(func(m int) { lost = append(lost, m) })

	spec := transport.Spec{Name: "eval:A", Kind: transport.KindEval, Tasks: 3}
	ft.pending = []transport.LivenessEvent{{Machine: 1, Up: false}}
	if err := c.RunStage(context.Background(), spec, nil, discard); err != nil {
		t.Fatal(err)
	}
	if len(lost) != 1 || lost[0] != 1 {
		t.Fatalf("loss handler saw %v, want [1]", lost)
	}
	if c.LiveMachines() != 2 {
		t.Fatalf("LiveMachines=%d, want 2", c.LiveMachines())
	}
	if m := c.MachineFor(1); m != 2 {
		t.Fatalf("MachineFor(1)=%d after losing machine 1, want ring successor 2", m)
	}
	st := c.Stats()
	if st.MachineLosses != 1 {
		t.Fatalf("MachineLosses=%d, want 1", st.MachineLosses)
	}
	// The completed stage absorbed the pending recovery.
	if st.Recoveries != 1 {
		t.Fatalf("Recoveries=%d, want 1 (reassigned work finished its stage)", st.Recoveries)
	}

	ft.pending = []transport.LivenessEvent{{Machine: 1, Up: true}}
	if err := c.RunStage(context.Background(), spec, nil, discard); err != nil {
		t.Fatal(err)
	}
	if c.LiveMachines() != 3 {
		t.Fatalf("LiveMachines=%d after rejoin, want 3", c.LiveMachines())
	}
	if got := c.Stats().Recoveries; got != 2 {
		t.Fatalf("Recoveries=%d after rejoin, want 2", got)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var losses, rejoins, wires int
	for _, ev := range buf.Events {
		switch ev.Type {
		case trace.MachineLoss:
			losses++
			if ev.Bytes != 100 {
				t.Fatalf("loss recovery bytes = %d, want 100", ev.Bytes)
			}
		case trace.MachineRejoin:
			rejoins++
		case trace.Wire:
			wires++
		}
	}
	if losses != 1 || rejoins != 1 {
		t.Fatalf("trace saw %d losses / %d rejoins, want 1/1", losses, rejoins)
	}
	if wires == 0 {
		t.Fatal("no wire traffic events emitted for remote stages")
	}
	if _, err := trace.Validate(buf.Events); err != nil {
		t.Fatalf("remote-path trace invalid: %v", err)
	}
}

func TestApplyLivenessNeverKillsLastMachine(t *testing.T) {
	ft := &fakeTransport{machines: 2}
	c := New(Config{Machines: 2, Transport: ft})
	ft.pending = []transport.LivenessEvent{{Machine: 0, Up: false}, {Machine: 1, Up: false}}
	spec := transport.Spec{Name: "eval:A", Kind: transport.KindEval, Tasks: 2}
	if err := c.RunStage(context.Background(), spec, nil, discard); err != nil {
		t.Fatal(err)
	}
	if c.LiveMachines() != 1 {
		t.Fatalf("LiveMachines=%d, want 1 (the engine keeps one survivor for reassignment)", c.LiveMachines())
	}
}

func TestNewRejectsFaultsWithTransport(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted Faults together with Transport")
		}
	}()
	New(Config{Machines: 2, Transport: &fakeTransport{machines: 2}, Faults: &FaultPlan{Seed: 1, FailureRate: 0.5}})
}

func TestNewRejectsMachineCountMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a transport with a different machine count")
		}
	}()
	New(Config{Machines: 3, Transport: &fakeTransport{machines: 2}})
}

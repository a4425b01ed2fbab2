//go:build !race

// Under -race the runtime allocates on its own account, so an allocation
// count is the program's only without it.

package tcp

import (
	"context"
	"testing"

	"dbtf/internal/transport"
)

// laneHost answers every task with the same lane-sized payload from one
// outputs slice it keeps, as core.Worker does: a host that costs nothing,
// so the count below is the transport's.
type laneHost struct {
	outs    []transport.TaskOutput
	payload []byte
}

func (h *laneHost) Apply(transport.StateKind, []byte) error { return nil }

func (h *laneHost) RunBatch(spec transport.Spec, tasks []int) ([]transport.TaskOutput, error) {
	h.outs = h.outs[:0]
	for _, task := range tasks {
		h.outs = append(h.outs, transport.TaskOutput{Task: task, Nanos: 1, Payload: h.payload})
	}
	return h.outs, nil
}

// TestRoundTripAllocs pins what a steady-state stage costs the whole
// process — coordinator, two loopback workers' serve loops, sockets — with
// a column push riding in every request: the results channel, a closure
// per request and little else (about 20 on the coordinator alone before
// the codec kept its buffers and Run its task lists).
func TestRoundTripAllocs(t *testing.T) {
	cfg := testConfig()
	for i := 0; i < 2; i++ {
		addr, _ := startWorker(t, &laneHost{payload: make([]byte, 3000)})
		cfg.Addrs = append(cfg.Addrs, addr)
	}
	c, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := c.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	ctx := context.Background()
	if err := c.PushState(ctx, transport.StateSetup, make([]byte, 50_000)); err != nil {
		t.Fatal(err)
	}
	column := make([]byte, 150)
	spec := transport.Spec{Name: "eval:A", Kind: transport.KindEval, Tasks: 4}
	delivered := 0
	deliver := func(tr transport.TaskResult) error {
		delivered += len(tr.Payload)
		return nil
	}
	stage := func() {
		if err := c.PushState(ctx, transport.StateColumn, column); err != nil {
			t.Fatal(err)
		}
		if ev := c.Membership(ctx); len(ev) != 0 {
			t.Fatalf("Membership = %v with every worker up", ev)
		}
		if err := c.Run(ctx, spec, deliver); err != nil {
			t.Fatal(err)
		}
	}
	stage()
	if allocs := testing.AllocsPerRun(200, stage); allocs > 12 {
		t.Errorf("a warm stage of 4 tasks on 2 workers allocates %v objects process-wide, want at most 12", allocs)
	} else {
		t.Logf("%v allocations a stage", allocs)
	}
	if delivered == 0 {
		t.Fatal("no payload was delivered")
	}
}

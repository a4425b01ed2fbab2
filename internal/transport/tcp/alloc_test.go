//go:build !race

// Under -race the runtime allocates on its own account, so an allocation
// count is the program's only without it.

package tcp

import (
	"context"
	"net"
	"runtime"
	"testing"
	"time"

	"dbtf/internal/slab"
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
// a column push riding in every request: nothing. The request slots, their
// goroutine bodies and the results channel live on the coordinator (a
// stage cost 4 objects while Run made the channel and a closure per
// request, and about 20 on the coordinator alone before the codec kept its
// buffers and Run its task lists).
func TestRoundTripAllocs(t *testing.T) {
	cfg := testConfig()
	for i := 0; i < 2; i++ {
		addr, _ := startWorker(t, &laneHost{payload: make([]byte, 3000)})
		cfg.Addrs = append(cfg.Addrs, addr)
	}
	c, err := DialContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := c.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	ctx := context.Background()
	if err := c.PushSetup(ctx, setupAll(c, make([]byte, 50_000))); err != nil {
		t.Fatal(err)
	}
	column := make([]byte, 150)
	spec := transport.Spec{Kind: transport.KindEval, Tasks: 4}
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
	if allocs := testing.AllocsPerRun(200, stage); allocs > 0 {
		t.Errorf("a warm stage of 4 tasks on 2 workers allocates %v objects process-wide, want none", allocs)
	} else {
		t.Logf("%v allocations a stage", allocs)
	}
	if delivered == 0 {
		t.Fatal("no payload was delivered")
	}
}

// TestWarmSetupCycleAllocs pins what the slab pool saves a TCP run: once it
// is warm, a whole run's worth of transport — dial two loopback workers,
// ship each its set-up blob, install the factors, run a stage, close —
// allocates none of the set-up's bytes anywhere in the process. The blobs
// are taken from the pool as core takes them; the coordinator returns them
// and its frame buffers at Close, and each worker its frame buffers when
// its connection ends. A blob past the 64 KiB first read chunk grows its
// worker's frame buffer in the pool as its bytes arrive, three times at
// 400,000 B, and each buffer it outgrows goes back there.
func TestWarmSetupCycleAllocs(t *testing.T) {
	cfg := testConfig()
	var servers []*Server
	for i := 0; i < 2; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		s := NewServer(&laneHost{payload: make([]byte, 3000)}, nil)
		done := make(chan error, 1)
		go func() { done <- s.Serve(lis) }()
		t.Cleanup(func() {
			_ = lis.Close()
			if err := <-done; err != nil {
				t.Errorf("Serve: %v", err)
			}
		})
		servers = append(servers, s)
		cfg.Addrs = append(cfg.Addrs, lis.Addr().String())
	}
	ctx := context.Background()
	spec := transport.Spec{Kind: transport.KindEval, Tasks: 4}
	cycle := func(blobBytes int) {
		c, err := DialContext(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.PushSetup(ctx, [][]byte{slab.Bytes(blobBytes), slab.Bytes(blobBytes)}); err != nil {
			t.Fatal(err)
		}
		if err := c.PushState(ctx, transport.StateFactors, slab.Bytes(5_000)); err != nil {
			t.Fatal(err)
		}
		if err := c.Run(ctx, spec, func(transport.TaskResult) error { return nil }); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		for _, s := range servers {
			for openConns(s) > 0 {
				time.Sleep(time.Millisecond)
			}
		}
	}
	for _, blobBytes := range []int{50_000, 70_000, 400_000} {
		for i := 0; i < 3; i++ {
			cycle(blobBytes)
		}
		const cycles = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < cycles; i++ {
			cycle(blobBytes)
		}
		runtime.ReadMemStats(&after)
		perCycle := (after.TotalAlloc - before.TotalAlloc) / cycles
		if perCycle >= uint64(blobBytes) {
			t.Errorf("a warm set-up cycle of %d-byte blobs allocates %d B process-wide, want fewer than one blob", blobBytes, perCycle)
		}
		t.Logf("%d-byte blobs: %d B and %d objects a cycle", blobBytes, perCycle, (after.Mallocs-before.Mallocs)/cycles)
	}
}

// openConns is the number of coordinator connections s is serving.
func openConns(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

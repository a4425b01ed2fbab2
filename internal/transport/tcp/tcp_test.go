package tcp

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"dbtf/internal/transport"
)

// echoHost is a scriptable transport.Host: it records applied state and
// returns task payloads derived from the task index, so tests can verify
// routing and replay without the full DBTF executor.
type echoHost struct {
	mu      sync.Mutex
	applied []transport.StateKind
	blobs   map[transport.StateKind][][]byte
	taskErr error
}

func newEchoHost() *echoHost {
	return &echoHost{blobs: map[transport.StateKind][][]byte{}}
}

func (h *echoHost) Apply(kind transport.StateKind, payload []byte) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.applied = append(h.applied, kind)
	h.blobs[kind] = append(h.blobs[kind], append([]byte(nil), payload...))
	return nil
}

func (h *echoHost) RunBatch(spec transport.Spec, tasks []int) ([]transport.TaskOutput, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	outs := make([]transport.TaskOutput, len(tasks))
	for i, task := range tasks {
		if h.taskErr != nil {
			return nil, fmt.Errorf("task %d: %w", task, h.taskErr)
		}
		outs[i] = transport.TaskOutput{Task: task, Payload: []byte(fmt.Sprintf("%s/%d", spec.Name, task))}
	}
	return outs, nil
}

func (h *echoHost) appliedKinds() []transport.StateKind {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]transport.StateKind(nil), h.applied...)
}

// startWorker serves host on an ephemeral loopback port until the test
// ends, returning the address.
func startWorker(t *testing.T, host transport.Host) (string, net.Listener) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- Serve(lis, host, nil) }()
	t.Cleanup(func() {
		// Idempotent: tests that already closed the listener get ErrClosed,
		// which Serve maps to nil and Close reports as an error we ignore.
		_ = lis.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return lis.Addr().String(), lis
}

func testConfig(addrs ...string) Config {
	return Config{
		Addrs:         addrs,
		DialTimeout:   2 * time.Second,
		CallTimeout:   5 * time.Second,
		RedialBackoff: time.Millisecond,
	}
}

func TestPushStateReachesAllWorkers(t *testing.T) {
	hosts := []*echoHost{newEchoHost(), newEchoHost(), newEchoHost()}
	var addrs []string
	for _, h := range hosts {
		addr, _ := startWorker(t, h)
		addrs = append(addrs, addr)
	}
	c, err := Dial(testConfig(addrs...))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := c.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	if c.Machines() != 3 {
		t.Fatalf("Machines() = %d, want 3", c.Machines())
	}
	ctx := context.Background()
	if err := c.PushState(ctx, transport.StateSetup, []byte("setup")); err != nil {
		t.Fatal(err)
	}
	if err := c.PushState(ctx, transport.StateFactors, []byte("factors")); err != nil {
		t.Fatal(err)
	}
	for i, h := range hosts {
		got := h.appliedKinds()
		if len(got) != 2 || got[0] != transport.StateSetup || got[1] != transport.StateFactors {
			t.Fatalf("worker %d applied %v, want [setup factors]", i, got)
		}
	}
	sent, recvd := c.WireBytes()
	if sent == 0 || recvd == 0 {
		t.Fatalf("WireBytes() = %d/%d, want both nonzero", sent, recvd)
	}
}

func TestRunRoutesTasksByHomeMachine(t *testing.T) {
	hosts := []*echoHost{newEchoHost(), newEchoHost()}
	var addrs []string
	for _, h := range hosts {
		addr, _ := startWorker(t, h)
		addrs = append(addrs, addr)
	}
	c, err := Dial(testConfig(addrs...))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := c.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	spec := transport.Spec{Name: "eval:A", Kind: transport.KindEval, Tasks: 7}
	got := map[int]transport.TaskResult{}
	err = c.Run(context.Background(), spec, func(tr transport.TaskResult) error {
		got[tr.Task] = tr
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 7 {
		t.Fatalf("delivered %d tasks, want 7", len(got))
	}
	for task, tr := range got {
		if want := fmt.Sprintf("eval:A/%d", task); string(tr.Payload) != want {
			t.Fatalf("task %d payload %q, want %q", task, tr.Payload, want)
		}
		if tr.Machine != task%2 {
			t.Fatalf("task %d ran on machine %d, want home %d", task, tr.Machine, task%2)
		}
		if tr.Nanos < 0 {
			t.Fatalf("task %d has negative nanos", task)
		}
	}
}

func TestRunTaskErrorIsFatalNotALoss(t *testing.T) {
	h := newEchoHost()
	h.taskErr = errors.New("kernel exploded")
	addr, _ := startWorker(t, h)
	c, err := Dial(testConfig(addr))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := c.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	spec := transport.Spec{Name: "build:B", Kind: transport.KindBuild, Tasks: 2}
	err = c.Run(context.Background(), spec, func(transport.TaskResult) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "kernel exploded") {
		t.Fatalf("Run error = %v, want the executor's task error", err)
	}
	// The connection survived a task error: the machine is not lost.
	if ev := c.Membership(context.Background()); len(ev) != 0 {
		t.Fatalf("Membership reported %v after a task error, want no transitions", ev)
	}
}

func TestWorkerLossReroutesAndRejoinReplays(t *testing.T) {
	h0, h1 := newEchoHost(), newEchoHost()
	addr0, _ := startWorker(t, h0)
	lis1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr1 := lis1.Addr().String()
	serve1 := make(chan error, 1)
	go func() { serve1 <- Serve(lis1, h1, nil) }()

	c, err := Dial(testConfig(addr0, addr1))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := c.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	ctx := context.Background()
	if err := c.PushState(ctx, transport.StateSetup, []byte("setup")); err != nil {
		t.Fatal(err)
	}
	if err := c.PushState(ctx, transport.StateFactors, []byte("f1")); err != nil {
		t.Fatal(err)
	}
	if err := c.PushState(ctx, transport.StateColumn, []byte("c1")); err != nil {
		t.Fatal(err)
	}

	// Kill worker 1: close its listener and wait for the server loop to
	// exit, which tears down the live connection mid-protocol.
	if err := lis1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-serve1; err != nil {
		t.Fatalf("Serve(worker 1): %v", err)
	}

	// The next stage routes worker 1's share to the ring successor
	// (machine 0) and the loss shows up at the next boundary.
	spec := transport.Spec{Name: "eval:A", Kind: transport.KindEval, Tasks: 4}
	machines := map[int]int{}
	err = c.Run(ctx, spec, func(tr transport.TaskResult) error {
		machines[tr.Task] = tr.Machine
		return nil
	})
	if err != nil {
		t.Fatalf("Run after loss: %v", err)
	}
	for task, m := range machines {
		if m != 0 {
			t.Fatalf("task %d ran on machine %d after the loss, want 0", task, m)
		}
	}
	ev := c.Membership(ctx)
	var sawLoss bool
	for _, e := range ev {
		if e.Machine == 1 && !e.Up {
			sawLoss = true
		}
		if e.Up {
			t.Fatalf("unexpected rejoin in %v while worker 1 is down", ev)
		}
	}
	if !sawLoss {
		t.Fatalf("Membership = %v, want a loss for machine 1", ev)
	}

	// Restart worker 1 on the same address with a fresh (empty) host: the
	// coordinator must redial and replay setup, factors, and the column.
	h1b := newEchoHost()
	lis1b, err := net.Listen("tcp", addr1)
	if err != nil {
		t.Fatalf("restarting worker 1 on %s: %v", addr1, err)
	}
	serve1b := make(chan error, 1)
	go func() { serve1b <- Serve(lis1b, h1b, nil) }()
	t.Cleanup(func() {
		_ = lis1b.Close()
		if err := <-serve1b; err != nil {
			t.Errorf("Serve(worker 1 restart): %v", err)
		}
	})

	deadline := time.Now().Add(5 * time.Second)
	var rejoined bool
	for !rejoined && time.Now().Before(deadline) {
		for _, e := range c.Membership(ctx) {
			if e.Machine == 1 && e.Up {
				rejoined = true
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !rejoined {
		t.Fatal("worker 1 never rejoined after restart")
	}
	want := []transport.StateKind{transport.StateSetup, transport.StateFactors, transport.StateColumn}
	got := h1b.appliedKinds()
	if len(got) != len(want) {
		t.Fatalf("replay applied %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("replay applied %v, want %v", got, want)
		}
	}

	// And the rejoined worker takes its work back.
	err = c.Run(ctx, spec, func(tr transport.TaskResult) error {
		if tr.Task%2 == 1 && tr.Machine != 1 {
			return fmt.Errorf("task %d ran on machine %d after rejoin, want 1", tr.Task, tr.Machine)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDialFailsWhenAnyWorkerUnreachable(t *testing.T) {
	addr, _ := startWorker(t, newEchoHost())
	// Grab a port and close it again: dialing it must fail.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	if err := dead.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Dial(testConfig(addr, deadAddr)); err == nil {
		t.Fatal("Dial succeeded with an unreachable worker")
	}
}

func TestDialContextCancelUnblocksHungHandshake(t *testing.T) {
	// A listener that never calls Accept: the kernel completes the TCP
	// handshake from its backlog, so DialContext gets past the connect and
	// blocks reading the hello reply. Only ctx cancellation can unblock it
	// before CallTimeout (set to an hour here so a regression hangs the
	// deadline, not flakes past it).
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := lis.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	cfg := testConfig(lis.Addr().String())
	cfg.CallTimeout = time.Hour

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = DialContext(ctx, cfg)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("DialContext = %v, want context.Canceled", err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("DialContext took %v to honor cancellation", elapsed)
	}
}

func TestDialContextCancelDuringConnect(t *testing.T) {
	// Already-cancelled context: the connect itself must fail immediately,
	// even against a healthy worker.
	addr, _ := startWorker(t, newEchoHost())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DialContext(ctx, testConfig(addr)); !errors.Is(err, context.Canceled) {
		t.Fatalf("DialContext = %v, want context.Canceled", err)
	}
}

func TestServeRejectsBadHandshake(t *testing.T) {
	addr, _ := startWorker(t, newEchoHost())
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := conn.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
			t.Errorf("Close: %v", err)
		}
	}()
	// A ping before hello violates the protocol.
	if _, err := transport.WriteFrame(conn, &transport.Msg{Type: transport.MsgPing}); err != nil {
		t.Fatal(err)
	}
	resp, _, err := transport.ReadFrame(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != transport.MsgError || !strings.Contains(resp.Error, "bad handshake") {
		t.Fatalf("got %d %q, want a bad-handshake error", resp.Type, resp.Error)
	}
}

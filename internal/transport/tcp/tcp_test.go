package tcp

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
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
	log     []string // "kind:payload" per applied blob, in order
	taskErr error
	// reject, when set, is the state kind Apply refuses.
	reject transport.StateKind
}

func newEchoHost() *echoHost { return &echoHost{} }

func (h *echoHost) Apply(kind transport.StateKind, payload []byte) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if kind == h.reject {
		return errors.New("blob refused")
	}
	h.applied = append(h.applied, kind)
	h.log = append(h.log, kind.String()+":"+string(payload))
	return nil
}

func (h *echoHost) setReject(kind transport.StateKind) {
	h.mu.Lock()
	h.reject = kind
	h.mu.Unlock()
}

// appliedLog returns the applied blobs as one space-separated string.
func (h *echoHost) appliedLog() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return strings.Join(h.log, " ")
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

// frameCounter counts the request frames a worker receives, handshake
// included, by following the length prefixes through the byte stream of
// every connection its listener accepts.
type frameCounter struct {
	net.Listener
	frames atomic.Int64
}

func (l *frameCounter) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countedConn{Conn: conn, frames: &l.frames}, nil
}

// countedConn is read by one goroutine (the server's connection loop).
type countedConn struct {
	net.Conn
	frames *atomic.Int64
	hdr    []byte // length-prefix bytes seen so far
	body   int    // bytes of the current frame body still to come
}

func (c *countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	for q := p[:n]; len(q) > 0; {
		if c.body > 0 {
			k := min(c.body, len(q))
			c.body, q = c.body-k, q[k:]
			continue
		}
		c.hdr, q = append(c.hdr, q[0]), q[1:]
		if len(c.hdr) == 4 {
			c.body, c.hdr = int(binary.BigEndian.Uint32(c.hdr)), c.hdr[:0]
			c.frames.Add(1)
		}
	}
	return n, err
}

// startCountedWorker is startWorker behind a frameCounter.
func startCountedWorker(t *testing.T, host transport.Host) (string, *frameCounter) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fc := &frameCounter{Listener: lis}
	serveUntilCleanup(t, fc, host)
	return lis.Addr().String(), fc
}

// startWorker serves host on an ephemeral loopback port until the test
// ends, returning the address.
func startWorker(t *testing.T, host transport.Host) (string, net.Listener) {
	t.Helper()
	addr, fc := startCountedWorker(t, host)
	return addr, fc
}

func serveUntilCleanup(t *testing.T, lis net.Listener, host transport.Host) {
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
}

// dialWorkers starts one worker per host and dials them all.
func dialWorkers(t *testing.T, cfg Config, hosts ...*echoHost) (*Coordinator, []*frameCounter) {
	t.Helper()
	var counters []*frameCounter
	for _, h := range hosts {
		addr, fc := startCountedWorker(t, h)
		cfg.Addrs = append(cfg.Addrs, addr)
		counters = append(counters, fc)
	}
	c, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := c.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return c, counters
}

// runStage runs one echo stage of the given task count and fails the test
// on error.
func runStage(t *testing.T, c *Coordinator, tasks int) {
	t.Helper()
	spec := transport.Spec{Name: "eval:A", Kind: transport.KindEval, Tasks: tasks}
	if err := c.Run(context.Background(), spec, func(transport.TaskResult) error { return nil }); err != nil {
		t.Fatalf("Run(%d tasks): %v", tasks, err)
	}
}

func testConfig(addrs ...string) Config {
	return Config{
		Addrs:         addrs,
		dialTimeout:   2 * time.Second,
		callTimeout:   5 * time.Second,
		redialBackoff: time.Millisecond,
	}
}

// TestPushStateReachesAllWorkers pins the state-log contract: whatever was
// pushed is applied on a worker, in push order and exactly once, before
// the tasks of the next request that worker receives.
func TestPushStateReachesAllWorkers(t *testing.T) {
	hosts := []*echoHost{newEchoHost(), newEchoHost(), newEchoHost()}
	c, _ := dialWorkers(t, testConfig(), hosts...)
	if c.Machines() != 3 {
		t.Fatalf("Machines() = %d, want 3", c.Machines())
	}
	ctx := context.Background()
	push := func(kind transport.StateKind, payload string) {
		t.Helper()
		if err := c.PushState(ctx, kind, []byte(payload)); err != nil {
			t.Fatalf("PushState(%s %s): %v", kind, payload, err)
		}
	}
	expect := func(when string, want ...string) {
		t.Helper()
		for i, h := range hosts {
			if got := h.appliedLog(); got != want[i] {
				t.Fatalf("%s: worker %d applied [%s], want [%s]", when, i, got, want[i])
			}
		}
	}

	// Setup is flushed by the push itself; factors and columns wait.
	push(transport.StateSetup, "s")
	push(transport.StateFactors, "f1")
	push(transport.StateColumn, "c1")
	push(transport.StateColumn, "c2")
	expect("before any stage", "setup:s", "setup:s", "setup:s")

	// A stage with a batch for every worker delivers the rest, in order.
	runStage(t, c, 3)
	all := "setup:s factors:f1 column:c1 column:c2"
	expect("after a full stage", all, all, all)

	// Worker 2 gets no batch in a two-task stage and catches up on its
	// next request, missing nothing and repeating nothing.
	push(transport.StateColumn, "c3")
	runStage(t, c, 2)
	expect("after a stage without worker 2", all+" column:c3", all+" column:c3", all)
	push(transport.StateColumn, "c4")
	runStage(t, c, 3)
	all += " column:c3 column:c4"
	expect("after worker 2 caught up", all, all, all)

	// A factor snapshot drops the columns before it from the log. Worker 2
	// never saw c5; the snapshot supersedes it, so it must not be sent.
	push(transport.StateColumn, "c5")
	runStage(t, c, 2)
	push(transport.StateFactors, "f2")
	push(transport.StateColumn, "c6")
	runStage(t, c, 3)
	expect("after a snapshot under a lagging worker",
		all+" column:c5 factors:f2 column:c6", all+" column:c5 factors:f2 column:c6", all+" factors:f2 column:c6")

	sent, recvd := c.WireBytes()
	if sent == 0 || recvd == 0 {
		t.Fatalf("WireBytes() = %d/%d, want both nonzero", sent, recvd)
	}
}

// TestSteadyStateRoundTrips counts request frames at the workers' sockets:
// the set-up flush is one, a stage is one per worker however many columns
// were committed since the last, and a stage boundary with every worker up
// sends nothing at all.
func TestSteadyStateRoundTrips(t *testing.T) {
	hosts := []*echoHost{newEchoHost(), newEchoHost()}
	c, counters := dialWorkers(t, testConfig(), hosts...)
	ctx := context.Background()
	frames := func() [2]int64 { return [2]int64{counters[0].frames.Load(), counters[1].frames.Load()} }

	if got := frames(); got != [2]int64{1, 1} {
		t.Fatalf("after Dial: %v request frames, want the handshake alone", got)
	}
	if err := c.PushState(ctx, transport.StateSetup, []byte("s")); err != nil {
		t.Fatal(err)
	}
	if err := c.PushState(ctx, transport.StateFactors, []byte("f")); err != nil {
		t.Fatal(err)
	}
	if got := frames(); got != [2]int64{2, 2} {
		t.Fatalf("after setup and factors: %v request frames, want handshake + set-up flush", got)
	}
	const stages = 25
	want := "setup:s factors:f"
	for s := 0; s < stages; s++ {
		before := frames()
		if ev := c.Membership(ctx); len(ev) != 0 {
			t.Fatalf("Membership = %v with every worker up", ev)
		}
		if got := frames(); got != before {
			t.Fatalf("stage %d: Membership sent frames (%v → %v) with every worker up", s, before, got)
		}
		runStage(t, c, 4)
		if got := frames(); got != [2]int64{before[0] + 1, before[1] + 1} {
			t.Fatalf("stage %d: %v → %v request frames, want one per worker", s, before, got)
		}
		for i, h := range hosts {
			if got := h.appliedLog(); got != want {
				t.Fatalf("stage %d: worker %d applied [%s], want [%s]", s, i, got, want)
			}
		}
		col := fmt.Sprintf("c%d", s)
		if err := c.PushState(ctx, transport.StateColumn, []byte(col)); err != nil {
			t.Fatal(err)
		}
		want += " column:" + col
	}
	if got := frames(); got != [2]int64{2 + stages, 2 + stages} {
		t.Fatalf("%d stages cost %v request frames per worker, want %d", stages, got, 2+stages)
	}
}

// barrierHost's set-up blocks until every host of the fleet is setting up.
type barrierHost struct {
	*echoHost
	arrived *sync.WaitGroup
}

func (h barrierHost) Apply(kind transport.StateKind, payload []byte) error {
	if kind == transport.StateSetup {
		h.arrived.Done()
		h.arrived.Wait()
	}
	return h.echoHost.Apply(kind, payload)
}

// TestSetupFlushIsConcurrent: the workers unfold and partition on receipt
// of the setup blob, so the flush must reach all of them before it waits
// for any. A sequential flush leaves the first worker waiting for a second
// that has not been sent to, until the call timeout books it as lost.
func TestSetupFlushIsConcurrent(t *testing.T) {
	var arrived sync.WaitGroup
	arrived.Add(3)
	cfg := testConfig()
	for i := 0; i < 3; i++ {
		addr, _ := startWorker(t, barrierHost{newEchoHost(), &arrived})
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
	if err := c.PushState(context.Background(), transport.StateSetup, []byte("s")); err != nil {
		t.Fatal(err)
	}
	if ev := c.Membership(context.Background()); len(ev) != 0 {
		t.Fatalf("Membership = %v after the set-up flush, want no transitions", ev)
	}
}

// TestRejectedStateFailsTheRunThatCarriedIt: a piggy-backed blob the host
// refuses fails that Run with an error naming the state kind, books no
// loss, and leaves the worker's acknowledgement where it was, so the log
// is offered again.
func TestRejectedStateFailsTheRunThatCarriedIt(t *testing.T) {
	h := newEchoHost()
	c, _ := dialWorkers(t, testConfig(), h)
	ctx := context.Background()
	for _, p := range []struct {
		kind    transport.StateKind
		payload string
	}{{transport.StateSetup, "s"}, {transport.StateFactors, "f"}, {transport.StateColumn, "c"}} {
		if err := c.PushState(ctx, p.kind, []byte(p.payload)); err != nil {
			t.Fatal(err)
		}
	}
	h.setReject(transport.StateColumn)
	spec := transport.Spec{Name: "eval:A", Kind: transport.KindEval, Tasks: 1}
	delivered := 0
	err := c.Run(ctx, spec, func(transport.TaskResult) error { delivered++; return nil })
	if err == nil || !strings.Contains(err.Error(), "column state") || !strings.Contains(err.Error(), "blob refused") {
		t.Fatalf("Run = %v, want the host's refusal naming the column state", err)
	}
	if delivered != 0 {
		t.Fatalf("%d tasks ran behind a refused state blob", delivered)
	}
	if ev := c.Membership(ctx); len(ev) != 0 {
		t.Fatalf("Membership = %v after a refused blob, want no transitions", ev)
	}
	// Nothing was acknowledged: factors and the column are sent again.
	h.setReject(0)
	runStage(t, c, 1)
	if got, want := h.appliedLog(), "setup:s factors:f factors:f column:c"; got != want {
		t.Fatalf("applied [%s], want [%s]", got, want)
	}
}

// TestOversizedFrameIsATypedError: a message the frame limit cannot carry
// is the run's error — the typed one, naming the push that hit it — and
// not a machine loss: nothing was written, the connection is healthy, and
// redialing to replay the same blob could only fail the same way.
func TestOversizedFrameIsATypedError(t *testing.T) {
	big := make([]byte, 2048)
	for _, tc := range []struct {
		name string
		kind transport.StateKind
		want string // in the error of the call that hits the limit
	}{
		{"eager setup", transport.StateSetup, "tcp: state push (setup): tcp: request to worker 0: transport: frame too large"},
		{"piggy-backed factors", transport.StateFactors, "tcp: request to worker 0: transport: frame too large"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.maxFrame = 1024
			c, _ := dialWorkers(t, cfg, newEchoHost())
			ctx := context.Background()
			err := c.PushState(ctx, tc.kind, big)
			if tc.kind != transport.StateSetup {
				if err != nil {
					t.Fatalf("deferred PushState: %v", err)
				}
				err = c.Run(ctx, transport.Spec{Name: "eval:A", Kind: transport.KindEval, Tasks: 1},
					func(transport.TaskResult) error { return nil })
			}
			if !errors.Is(err, transport.ErrFrameTooLarge) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want ErrFrameTooLarge reading %q", err, tc.want)
			}
			if ev := c.Membership(ctx); len(ev) != 0 {
				t.Fatalf("Membership = %v after an oversized frame, want no loss", ev)
			}
		})
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
	spec := transport.Spec{Name: "eval:B", Kind: transport.KindEval, Mode: 1, Tasks: 2}
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
	// before callTimeout (set to an hour here so a regression hangs the
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
	cfg.callTimeout = time.Hour

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
	for name, first := range map[string]*transport.Msg{
		"a request before hello": {Type: transport.MsgRun},
		// Protocol 3 numbered the stage kinds from a build kind this build
		// no longer has; protocol 4 ships a set-up blob one configuration
		// word longer; the previous build's hello, protocol 6, answers an
		// eval with fixed int32 lanes where this build reads varints.
		"protocol 3":          {Type: transport.MsgHello, Proto: 3, Machines: 1},
		"protocol 4":          {Type: transport.MsgHello, Proto: 4, Machines: 1},
		"the protocol before": {Type: transport.MsgHello, Proto: transport.ProtoVersion - 1, Machines: 1},
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := transport.WriteFrame(conn, first); err != nil {
			t.Fatal(err)
		}
		resp, _, err := transport.ReadFrame(conn, 0)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Type != transport.MsgError || !strings.Contains(resp.Error, "bad handshake") {
			t.Errorf("%s: got %d %q, want a bad-handshake error", name, resp.Type, resp.Error)
		}
		if err := conn.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
			t.Errorf("Close: %v", err)
		}
	}
}

// TestReroutedBatchesShareOneExchange: once a machine is known to be down,
// its home batch and the survivor's own reach the survivor as one request —
// one frame, one reply — and every delivered payload is the one its task
// produced. A reply's payloads are slices of the connection's read buffer,
// so two exchanges with one executor in one round would let the second
// reply overwrite the first before Run has delivered it.
func TestReroutedBatchesShareOneExchange(t *testing.T) {
	h0, h1 := newEchoHost(), newEchoHost()
	addr0, frames0 := startCountedWorker(t, h0)
	lis1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serve1 := make(chan error, 1)
	go func() { serve1 <- Serve(lis1, h1, nil) }()
	c, err := Dial(testConfig(addr0, lis1.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := c.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	if err := lis1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-serve1; err != nil {
		t.Fatalf("Serve(worker 1): %v", err)
	}

	ctx := context.Background()
	spec := transport.Spec{Name: "eval:A", Kind: transport.KindEval, Tasks: 4}
	stage := func() {
		t.Helper()
		got := map[int]string{}
		err := c.Run(ctx, spec, func(tr transport.TaskResult) error {
			if tr.Machine != 0 {
				return fmt.Errorf("task %d ran on machine %d, want the survivor", tr.Task, tr.Machine)
			}
			if _, dup := got[tr.Task]; dup {
				return fmt.Errorf("task %d delivered twice", tr.Task)
			}
			got[tr.Task] = string(tr.Payload)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for task := 0; task < spec.Tasks; task++ {
			if want := fmt.Sprintf("eval:A/%d", task); got[task] != want {
				t.Fatalf("task %d delivered payload %q, want %q", task, got[task], want)
			}
		}
	}
	// The stage that finds the machine dead: the survivor answers its own
	// batch, then the one whose request died.
	stage()
	for s := 0; s < 3; s++ {
		before := frames0.frames.Load()
		stage()
		if n := frames0.frames.Load() - before; n != 1 {
			t.Fatalf("stage %d after the loss cost the survivor %d request frames, want both batches in one", s, n)
		}
	}
}

package tcp

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"dbtf/internal/transport"
)

// slowHost blocks RunBatch until release is closed, signalling started on
// entry, so tests can drain a server with a batch genuinely in flight.
type slowHost struct {
	*echoHost
	started chan struct{}
	release chan struct{}
}

func newSlowHost() *slowHost {
	return &slowHost{
		echoHost: newEchoHost(),
		started:  make(chan struct{}),
		release:  make(chan struct{}),
	}
}

func (h *slowHost) RunBatch(spec transport.Spec, tasks []int) ([]transport.TaskOutput, error) {
	select {
	case <-h.started:
	default:
		close(h.started)
	}
	<-h.release
	return h.echoHost.RunBatch(spec, tasks)
}

func TestShutdownDrainsInFlightBatch(t *testing.T) {
	h := newSlowHost()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(h, nil)
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(lis) }()

	c, err := Dial(testConfig(lis.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := c.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()

	spec := transport.Spec{Name: "eval:A", Kind: transport.KindEval, Tasks: 2}
	runDone := make(chan error, 1)
	delivered := 0
	go func() {
		runDone <- c.Run(context.Background(), spec, func(transport.TaskResult) error {
			delivered++
			return nil
		})
	}()
	<-h.started // the batch is now in flight on the worker

	shutDone := make(chan error, 1)
	go func() { shutDone <- srv.Shutdown(10 * time.Second) }()
	// Give the drain a moment to start, then let the task finish: the
	// server must answer the in-flight batch instead of dying mid-batch.
	time.Sleep(50 * time.Millisecond)
	close(h.release)

	if err := <-runDone; err != nil {
		t.Fatalf("Run during drain: %v", err)
	}
	if delivered != 2 {
		t.Fatalf("delivered %d task results across the drain, want 2", delivered)
	}
	if err := <-shutDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve after drain: %v", err)
	}
}

func TestShutdownClosesIdleConnections(t *testing.T) {
	h := newEchoHost()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(h, nil)
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(lis) }()

	c, err := Dial(testConfig(lis.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := c.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()

	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve after drain: %v", err)
	}
	// The idle connection was closed server-side: the next call fails and
	// the machine is reported down.
	if err := c.PushState(context.Background(), transport.StateSetup, []byte("x")); err == nil {
		t.Fatal("PushState succeeded against a drained server")
	}
}

func TestShutdownForceClosesAfterTimeout(t *testing.T) {
	h := newSlowHost()
	t.Cleanup(func() { close(h.release) }) // unwedge the handler goroutine
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(h, nil)
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(lis) }()

	c, err := Dial(testConfig(lis.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := c.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()

	spec := transport.Spec{Name: "eval:A", Kind: transport.KindEval, Tasks: 1}
	runDone := make(chan error, 1)
	go func() {
		runDone <- c.Run(context.Background(), spec, func(transport.TaskResult) error { return nil })
	}()
	<-h.started

	start := time.Now()
	if err := srv.Shutdown(50 * time.Millisecond); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Shutdown took %v despite a 50ms drain budget", elapsed)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve after forced drain: %v", err)
	}
	// The coordinator sees the force-closed connection as a loss: with no
	// other live worker the stage fails rather than hanging.
	if err := <-runDone; err == nil {
		t.Fatal("Run succeeded although its worker was force-closed mid-batch")
	}
}

func TestServeAfterShutdownRefused(t *testing.T) {
	srv := NewServer(newEchoHost(), nil)
	if err := srv.Shutdown(0); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := lis.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
			t.Errorf("Close: %v", err)
		}
	}()
	if err := srv.Serve(lis); err == nil {
		t.Fatal("Serve on a drained server succeeded")
	}
}

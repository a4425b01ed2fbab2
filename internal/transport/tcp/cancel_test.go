package tcp

import (
	"context"
	"errors"
	"testing"
	"time"

	"dbtf/internal/transport"
)

// stallHost blocks every RunBatch, and every set-up blob, until released,
// simulating a worker that is alive but slow.
type stallHost struct {
	*echoHost
	release chan struct{}
}

func (h *stallHost) RunBatch(spec transport.Spec, tasks []int) ([]transport.TaskOutput, error) {
	<-h.release
	return h.echoHost.RunBatch(spec, tasks)
}

func (h *stallHost) Apply(kind transport.StateKind, payload []byte) error {
	if kind == transport.StateSetup {
		<-h.release
	}
	return h.echoHost.Apply(kind, payload)
}

// dialStalled dials one stallHost worker. The stall is released only when
// the test function has returned — after everything the test does to the
// coordinator, Close included — and only so the worker's serve loop can
// exit: nothing below may depend on the stalled call ever being answered.
func dialStalled(t *testing.T) *Coordinator {
	t.Helper()
	h := &stallHost{echoHost: newEchoHost(), release: make(chan struct{})}
	addr, _ := startWorker(t, h)
	t.Cleanup(func() { close(h.release) }) // registered after the serve loop's, so it runs before it
	c, err := Dial(testConfig(addr))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// within fails the test unless f returns inside d, far below the 5s
// callTimeout a stalled exchange would otherwise ride out.
func within(t *testing.T, d time.Duration, what string, f func() error) error {
	t.Helper()
	errc := make(chan error, 1)
	go func() { errc <- f() }()
	select {
	case err := <-errc:
		return err
	case <-time.After(d):
		t.Fatalf("%s did not return within %v of a stalled exchange", what, d)
		return nil
	}
}

// runStalled starts a one-task stage that stalls on the worker and returns
// the channel its error arrives on, once the batch has had time to reach
// the worker.
func runStalled(ctx context.Context, c *Coordinator) <-chan error {
	errc := make(chan error, 1)
	go func() {
		errc <- c.Run(ctx, transport.Spec{Name: "stall", Tasks: 1},
			func(transport.TaskResult) error { return nil })
	}()
	time.Sleep(100 * time.Millisecond)
	return errc
}

// TestRunCancelledMidStageReturnsPromptly pins the coordinator's
// result-collection loop to the stage context: with a batch in flight on
// a stalled worker, cancelling ctx must end Run immediately rather than
// sitting in the receive until callTimeout expires — and the Close that
// follows must not wait for the abandoned call either, because the
// cancelled Run closed the connection under it.
func TestRunCancelledMidStageReturnsPromptly(t *testing.T) {
	c := dialStalled(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := runStalled(ctx, c)
	cancel()
	err := within(t, 2*time.Second, "cancelled Run", func() error { return <-errc })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	if err := within(t, time.Second, "Close after a cancelled Run", c.Close); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// TestCloseInterruptsStalledExchange: Close does not queue behind the
// exchange in flight (which holds its worker's mutex for up to
// callTimeout); it closes the connection under it. The interrupted call
// fails like any lost connection, so the Run it belonged to ends in an
// error instead of outliving its coordinator.
func TestCloseInterruptsStalledExchange(t *testing.T) {
	c := dialStalled(t)
	errc := runStalled(context.Background(), c)
	if err := within(t, time.Second, "Close", c.Close); err != nil {
		t.Errorf("Close: %v", err)
	}
	if err := within(t, time.Second, "the interrupted Run", func() error { return <-errc }); err == nil {
		t.Fatal("Run succeeded on a closed coordinator")
	}
}

// TestSetupFlushObservesCancel: the set-up flush waits for every worker to
// unfold and partition; a ctx that ends meanwhile ends the wait, and the
// coordinator lets go of the workers it was waiting for.
func TestSetupFlushObservesCancel(t *testing.T) {
	c := dialStalled(t)
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(100*time.Millisecond, cancel)
	err := within(t, 2*time.Second, "cancelled PushState", func() error {
		return c.PushState(ctx, transport.StateSetup, []byte("s"))
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("PushState returned %v, want context.Canceled", err)
	}
	if err := within(t, time.Second, "Close after a cancelled flush", c.Close); err != nil {
		t.Errorf("Close: %v", err)
	}
}

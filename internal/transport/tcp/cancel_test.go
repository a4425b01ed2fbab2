package tcp

import (
	"context"
	"errors"
	"testing"
	"time"

	"dbtf/internal/transport"
)

// stallHost blocks every RunBatch until released, simulating a worker
// that is alive but slow.
type stallHost struct {
	*echoHost
	release chan struct{}
}

func (h *stallHost) RunBatch(spec transport.Spec, tasks []int) ([]transport.TaskOutput, error) {
	<-h.release
	return h.echoHost.RunBatch(spec, tasks)
}

// TestRunCancelledMidStageReturnsPromptly pins the coordinator's
// result-collection loop to the stage context: with a batch in flight on
// a stalled worker, cancelling ctx must end Run immediately rather than
// sitting in the receive until callTimeout expires. The results channel
// is buffered to the batch count, so the abandoned sender goroutines
// deposit their outcomes and exit.
func TestRunCancelledMidStageReturnsPromptly(t *testing.T) {
	h := &stallHost{echoHost: newEchoHost(), release: make(chan struct{})}
	addr, _ := startWorker(t, h)
	c, err := Dial(testConfig(addr))
	if err != nil {
		close(h.release)
		t.Fatal(err)
	}
	defer func() {
		if err := c.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	// Registered after the Close defer so it runs first: the abandoned
	// call holds the worker mutex until its reply arrives, and Close
	// blocks on that mutex — releasing the stall first keeps teardown
	// from riding out the full callTimeout.
	defer close(h.release)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		errc <- c.Run(ctx, transport.Spec{Name: "stall", Tasks: 1},
			func(transport.TaskResult) error { return nil })
	}()
	// Give the batch time to reach the stalled worker, then cancel.
	time.Sleep(100 * time.Millisecond)
	cancel()

	// Well under the 5s callTimeout: the old bare receive only returned
	// once the stalled call timed out.
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not observe cancellation while a batch was in flight")
	}
}

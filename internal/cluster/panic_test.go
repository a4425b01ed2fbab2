package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// A task panicking on every attempt must surface as an error naming the
// stage, not crash the coordinator (regression: the recovered panic used to propagate
// without stage attribution).
func TestForEachTaskPanicNamesStage(t *testing.T) {
	c := New(Config{Machines: 2})
	err := c.ForEachNamed(context.Background(), "explode", 4, func(task int) error {
		if task == 1 {
			panic("boom: kernel invariant violated")
		}
		return nil
	})
	if err == nil {
		t.Fatal("panicking task returned nil error")
	}
	for _, want := range []string{`stage "explode"`, "panicked", "boom"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
}

// Under retries the panic is retried like any transient failure; a task
// panicking on every attempt still aborts with the stage name and the
// attempt count.
func TestForEachPersistentPanicExhaustsRetries(t *testing.T) {
	c := New(Config{Machines: 2})
	err := c.ForEachNamed(context.Background(), "", 3, func(task int) error {
		if task == 2 {
			panic(fmt.Sprintf("task %d always dies", task))
		}
		return nil
	})
	if err == nil {
		t.Fatal("persistently panicking task returned nil error")
	}
	for _, want := range []string{`stage "stage 0"`, "failed after 4 attempts", "panicked"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
	if got := c.Stats().Retries; got != maxAttempts-1 {
		t.Fatalf("Retries = %d, want %d", got, maxAttempts-1)
	}
}

// An anonymous stage that panics once and then succeeds on retry reports
// no error and keeps the books consistent.
func TestForEachPanicRecoversOnRetry(t *testing.T) {
	c := New(Config{Machines: 2})
	attempts := make(map[int]int)
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	err := c.ForEachNamed(context.Background(), "", 4, func(task int) error {
		<-mu
		attempts[task]++
		first := attempts[task] == 1
		mu <- struct{}{}
		if task == 3 && first {
			panic("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("stage failed despite successful retry: %v", err)
	}
	if got := c.Stats().Retries; got != 1 {
		t.Fatalf("Retries = %d, want 1", got)
	}
}

// Cancellation is not a stage failure: the context sentinel must pass
// through unwrapped so callers can match it with errors.Is — and must not
// acquire a misleading stage label.
func TestForEachCancellationNotWrapped(t *testing.T) {
	c := New(Config{Machines: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := c.ForEachNamed(ctx, "cancelled", 4, func(task int) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if strings.Contains(fmt.Sprint(err), "stage") {
		t.Fatalf("cancellation error %q carries a stage label", err)
	}
}

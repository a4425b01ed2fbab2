package cluster

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestGateBoundsConcurrencyAcrossClusters(t *testing.T) {
	g := NewGate(1)
	mk := func() *Cluster {
		return New(Config{Machines: 4, Gate: g})
	}
	var (
		running atomic.Int32
		peak    atomic.Int32
	)
	task := func(int) error {
		n := running.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		running.Add(-1)
		return nil
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		cl := mk()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := cl.ForEachNamed(context.Background(), "", 8, task); err != nil {
				t.Errorf("ForEach: %v", err)
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p != 1 {
		t.Fatalf("peak concurrency %d across two gated clusters, want 1", p)
	}
}

func TestGateAcquireHonorsContext(t *testing.T) {
	g := NewGate(1)
	if err := g.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer g.release()

	cl := New(Config{Machines: 2, Gate: g})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	err := cl.ForEachNamed(ctx, "", 2, func(int) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ForEach blocked on a full gate returned %v, want context.Canceled", err)
	}
}

// TestGateAcquireReturnsPromptlyOnCancel: a full gate gives up as soon as
// the context is cancelled; an acquire that waits only for a slot blocks
// here until the deferred release.
func TestGateAcquireReturnsPromptlyOnCancel(t *testing.T) {
	g := NewGate(1)
	if err := g.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer g.release()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan error, 1)
	go func() { done <- g.acquire(ctx) }()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("acquire on a full gate under a cancelled context returned %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("acquire on a full gate ignored its cancelled context for a second")
	}
}

func TestNewGateRejectsNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewGate(0) did not panic")
		}
	}()
	NewGate(0)
}

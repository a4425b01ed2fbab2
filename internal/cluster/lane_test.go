package cluster

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dbtf/internal/trace"
)

// lockedStepClock is stepClock for concurrent readers.
func lockedStepClock(step time.Duration) func() time.Time {
	var mu sync.Mutex
	fake := time.Unix(0, 0)
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		fake = fake.Add(step)
		return fake
	}
}

// countedStage is one stage of the lane test: fail picks the attempts its
// task fails, cancelAt (when non-negative) the task whose first attempt
// cancels the stage's context, and runs counts how often each task ran.
type countedStage struct {
	name     string
	fail     func(task, attempt int) bool
	cancelAt int
	runs     []atomic.Int64
}

func newCountedStage(name string, tasks int, fail func(task, attempt int) bool) *countedStage {
	return &countedStage{name: name, fail: fail, cancelAt: -1, runs: make([]atomic.Int64, tasks)}
}

// run runs the stage on c and returns its error.
func (s *countedStage) run(c *Cluster) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	return c.ForEachNamed(ctx, s.name, len(s.runs), func(task int) error {
		attempt := int(s.runs[task].Add(1)) - 1
		if task == s.cancelAt && attempt == 0 {
			cancel()
		}
		if s.fail(task, attempt) {
			return fmt.Errorf("task %d attempt %d fails", task, attempt)
		}
		return nil
	})
}

// check holds the stage's trace to the task counts: every attempt the
// engine made (one plus the task's retries) ran the task exactly once, and
// each machine is charged what its tasks' attempts cost — one clock step an
// attempt — plus one stage latency per relaunch.
func (s *countedStage) check(t *testing.T, buf *trace.Buffer, machines int, step, latency time.Duration, wantAll bool) {
	t.Helper()
	stage := int64(-1)
	retries := make([]int64, len(s.runs))
	var charged []int64
	for _, ev := range buf.Events {
		switch {
		case ev.Type == trace.StageBegin && ev.Name == s.name:
			stage = ev.Stage
		case ev.Stage != stage:
		case ev.Type == trace.Retry:
			retries[ev.Task]++
		case ev.Type == trace.StageEnd:
			charged = ev.PerMachineNanos
		}
	}
	if stage < 0 || charged == nil {
		t.Fatalf("%s: no stage span on the trace", s.name)
	}
	want := make([]int64, machines)
	for task := range s.runs {
		runs := s.runs[task].Load()
		if (runs != 0 || wantAll) && runs != 1+retries[task] {
			t.Errorf("%s: task %d ran %d times in %d attempts", s.name, task, runs, 1+retries[task])
		}
		want[task%machines] += runs*step.Nanoseconds() + retries[task]*latency.Nanoseconds()
	}
	for m := range want {
		if charged[m] != want[m] {
			t.Errorf("%s: machine %d charged %v, want %v", s.name, m, time.Duration(charged[m]), time.Duration(want[m]))
		}
	}
}

// TestLanesEndWithTheirStage pins the lane lifecycle ForEachNamed documents:
// after a stage that succeeds, one whose task exhausts its attempts, one
// whose context is cancelled mid-stage, and eight concurrent stages on three
// clusters sharing one gate, the process holds no goroutine more than
// before; and in each, every attempt ran its task once and every machine
// was charged exactly its attempts and relaunches. The gate has one slot, so
// attempts run one at a time across all clusters and each cluster's step
// clock gives every attempt exactly one step.
func TestLanesEndWithTheirStage(t *testing.T) {
	const machines, tasks = 3, 7
	const step, latency = time.Millisecond, 3 * time.Millisecond
	gate := NewGate(1)
	newCluster := func() (*Cluster, *trace.Buffer) {
		buf := &trace.Buffer{}
		c := New(Config{Machines: machines, Tracer: trace.New(buf), Gate: gate,
			network: NetworkModel{LatencyPerStage: latency, BytesPerSecond: 1e18}})
		c.parallelism = 2
		c.now = lockedStepClock(step)
		return c, buf
	}
	baseline := runtime.NumGoroutine()
	settled := func(after string) {
		t.Helper()
		// A lane's goroutine exits right after its Done; give the runtime a
		// moment to retire it.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
			if time.Now().After(deadline) {
				t.Fatalf("after %s: %d goroutines, %d before", after, runtime.NumGoroutine(), baseline)
			}
			time.Sleep(time.Millisecond)
		}
	}
	never := func(int, int) bool { return false }

	c, buf := newCluster()
	ok := newCountedStage("success", tasks, func(task, attempt int) bool { return task%2 == 1 && attempt < task%3 })
	if err := ok.run(c); err != nil {
		t.Fatal(err)
	}
	ok.check(t, buf, machines, step, latency, true)
	settled("a successful stage")

	c, buf = newCluster()
	exhausted := newCountedStage("exhausted", tasks, func(task, _ int) bool { return task == 4 })
	if err := exhausted.run(c); err == nil {
		t.Fatal("a task failing every attempt did not fail its stage")
	}
	exhausted.check(t, buf, machines, step, latency, false)
	if got := exhausted.runs[4].Load(); got != maxAttempts {
		t.Errorf("the failing task ran %d times, want maxAttempts = %d", got, maxAttempts)
	}
	settled("a stage whose task exhausted its attempts")

	c, buf = newCluster()
	cancelled := newCountedStage("cancelled", tasks, never)
	cancelled.cancelAt = 2
	if err := cancelled.run(c); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled stage returned %v, want context.Canceled", err)
	}
	cancelled.check(t, buf, machines, step, latency, false)
	settled("a stage cancelled mid-stage")

	var clusters [3]*Cluster
	var bufs [3]*trace.Buffer
	for i := range clusters {
		clusters[i], bufs[i] = newCluster()
	}
	var stages [8]*countedStage
	var wg sync.WaitGroup
	for i := range stages {
		stages[i] = newCountedStage(fmt.Sprintf("concurrent %d", i), tasks, func(task, attempt int) bool { return attempt < (task+i)%3 })
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := stages[i].run(clusters[i%3]); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i, s := range stages {
		s.check(t, bufs[i%3], machines, step, latency, true)
	}
	settled("eight concurrent stages on three clusters")
}

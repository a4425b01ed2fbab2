package core

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"dbtf/internal/cluster"
	"dbtf/internal/partition"
	"dbtf/internal/trace"
)

// setRun is what one run on a shared set did, read off its own trace.
type setRun struct {
	res                         *Result
	err                         error
	unfolds, partitions, shuffs int
}

// runOnSet runs DecomposeOn on its own traced cluster, counting the set-up
// events its trace holds; atPartition, when non-nil, is called at the
// partition stage's begin, on the building run's goroutine.
func runOnSet(ctx context.Context, set *Partitions, machines int, opt Options, atPartition func()) setRun {
	var r setRun
	cl := tracedCluster(machines, func(ev *trace.Event) {
		switch {
		case ev.Type == trace.DriverBegin && ev.Name == "unfold":
			r.unfolds++
		case ev.Type == trace.StageBegin && ev.Name == "partition":
			r.partitions++
			if atPartition != nil {
				atPartition()
			}
		case ev.Type == trace.Shuffle:
			r.shuffs++
		}
	})
	r.res, r.err = DecomposeOn(ctx, set, cl, opt)
	return r
}

// TestSharedSetConcurrentRunsBuildOnce: runs started together on one empty
// set share one build — exactly one of them unfolds, runs the partition
// stage and charges the three Lemma-6 shuffles, and it holds its partition
// stage open until another run is waiting on the build; the others charge
// none — and every run's factors, errors and iteration count equal a plain
// Decompose of the same options, as do those of a later run on the built
// set. A run whose partition count is not the set's is refused.
func TestSharedSetConcurrentRunsBuildOnce(t *testing.T) {
	const machines, runs = 3, 4
	x, _, _, _ := plantedTensor(rand.New(rand.NewSource(29)), 14, 12, 10, 4, 0.3)
	set := NewPartitions(x, machines, machines)
	opts := make([]Options, runs+1)
	for i := range opts {
		opts[i] = Options{Rank: 4, MaxIter: 4, MinIter: 4, Seed: int64(i)}
	}
	got := make([]setRun, runs+1)
	waitForWaiter := func() {
		for {
			set.mu.Lock()
			waiting := set.done != nil
			set.mu.Unlock()
			if waiting {
				return
			}
			runtime.Gosched()
		}
	}
	var start, wg sync.WaitGroup
	start.Add(1)
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start.Wait()
			got[i] = runOnSet(context.Background(), set, machines, opts[i], waitForWaiter)
		}(i)
	}
	start.Done()
	wg.Wait()
	got[runs] = runOnSet(context.Background(), set, machines, opts[runs], nil)

	builders := 0
	for i, r := range got {
		if r.err != nil {
			t.Fatalf("run %d: %v", i, r.err)
		}
		want, err := Decompose(context.Background(), x, testCluster(machines), opts[i])
		if err != nil {
			t.Fatal(err)
		}
		if !resultsEqual(r.res, want) {
			t.Errorf("run %d on the shared set differs from a plain Decompose", i)
		}
		built := r.partitions == 1
		if built {
			builders++
		}
		switch {
		case built && (r.unfolds != 1 || r.shuffs != 3 || r.res.Stats.ShuffledBytes != want.Stats.ShuffledBytes || r.res.Stats.Stages != want.Stats.Stages):
			t.Errorf("run %d built the set with %d unfolds, %d shuffles (%d B) in %d stages; want 1, 3 (%d B) in %d",
				i, r.unfolds, r.shuffs, r.res.Stats.ShuffledBytes, r.res.Stats.Stages, want.Stats.ShuffledBytes, want.Stats.Stages)
		case !built && (r.partitions != 0 || r.unfolds != 0 || r.shuffs != 0 || r.res.Stats.ShuffledBytes != 0 || r.res.Stats.Stages != want.Stats.Stages-1):
			t.Errorf("run %d read the set after %d unfolds, %d partition stages, %d shuffles (%d B) in %d stages; want none in %d",
				i, r.unfolds, r.partitions, r.shuffs, r.res.Stats.ShuffledBytes, r.res.Stats.Stages, want.Stats.Stages-1)
		}
	}
	if builders != 1 {
		t.Errorf("%d runs built the shared set, want exactly 1", builders)
	}
	if _, err := DecomposeOn(context.Background(), set, testCluster(machines), Options{Rank: 4, Partitions: 2}); err == nil {
		t.Error("a run for 2 partitions ran on a set of 3")
	}
}

// TestSharedSetCancelledBuildNotKept: a build cancelled inside its
// partition stage fails its run and leaves the set empty, arenas released;
// the next run builds the set itself and gets a plain Decompose's factors.
func TestSharedSetCancelledBuildNotKept(t *testing.T) {
	const machines = 3
	x, _, _, _ := plantedTensor(rand.New(rand.NewSource(30)), 12, 10, 8, 3, 0.3)
	set := NewPartitions(x, machines, machines)
	opt := Options{Rank: 3, MaxIter: 3, MinIter: 3, Seed: 5}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if r := runOnSet(ctx, set, machines, opt, cancel); !errors.Is(r.err, context.Canceled) || r.partitions != 1 {
		t.Fatalf("cancelled build: %d partition stages, error %v; want 1 and context.Canceled", r.partitions, r.err)
	}
	set.mu.Lock()
	px, building := set.px, set.building
	set.mu.Unlock()
	if px != ([3]*partition.Partitioned{}) || building {
		t.Fatalf("the cancelled build was kept: set %v, building %v", px, building)
	}

	r := runOnSet(context.Background(), set, machines, opt, nil)
	want, err := Decompose(context.Background(), x, cluster.New(cluster.Config{Machines: machines}), opt)
	if r.err != nil || err != nil {
		t.Fatal(r.err, err)
	}
	if r.partitions != 1 || !resultsEqual(r.res, want) {
		t.Errorf("the run after a cancelled build ran %d partition stages, equal to Decompose: %v; want 1, true", r.partitions, resultsEqual(r.res, want))
	}
}

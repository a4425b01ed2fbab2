package core

import (
	"context"
	"sync"

	"dbtf/internal/partition"
	"dbtf/internal/tensor"
)

// Partitions is one tensor's three vertically partitioned unfoldings for a
// partition count N: the px of Algorithm 2, lines 1-3, which §III-B builds
// once and never reshuffles. A run that finds the set empty builds it
// through its own cluster — the unfold section, the partition stage and the
// Lemma-6 shuffle are that run's — and every later run reads it. Any number
// of runs may share one set, concurrently too: no stage writes a block after
// partition.Build, and every per-run buffer (column tasks, lanes, cache
// registries) belongs to the run's own executor.
type Partitions struct {
	x *tensor.Tensor
	n int

	mu sync.Mutex
	// px is the built set; all nil until a build completes.
	//dbtf:guardedby mu
	px [3]*partition.Partitioned
	// building is set while a run builds the set. done, made by the first
	// run that has to wait for that build, is closed when the build ends,
	// kept or not: an uncontended build makes no channel.
	//dbtf:guardedby mu
	building bool
	//dbtf:guardedby mu
	done chan struct{}
}

// NewPartitions returns an empty set over x for n partitions per unfolding.
// The set holds no arenas until a run built on it (DecomposeOn) builds them,
// and keeps them for as long as it is referenced: an owner that outlives
// every run, as the job server's tensor store does, pays Lemma 6's shuffle
// once per tensor.
func NewPartitions(x *tensor.Tensor, n int) *Partitions { return &Partitions{x: x, n: n} }

// Tensor returns the tensor the set partitions.
func (s *Partitions) Tensor() *tensor.Tensor { return s.x }

// acquire returns the built set. Otherwise the first caller gets build and
// must settle its build; a caller that finds another run building waits for
// that build to end — or for its own context — and looks again, so
// concurrent first runs share one build and a failed one is retried by the
// next.
func (s *Partitions) acquire(ctx context.Context) (px [3]*partition.Partitioned, build bool, err error) {
	for {
		s.mu.Lock()
		px = s.px
		if px[0] != nil || !s.building {
			build = px[0] == nil
			s.building = build
			s.mu.Unlock()
			return px, build, nil
		}
		if s.done == nil {
			s.done = make(chan struct{})
		}
		done := s.done
		s.mu.Unlock()
		select {
		case <-done:
		case <-ctx.Done():
			return px, false, ctx.Err()
		}
	}
}

// settle ends the caller's build: a complete set is kept for every later
// run; a failed or cancelled one goes back to the slab pool and leaves the
// set empty for the next run to build.
func (s *Partitions) settle(px [3]*partition.Partitioned, err error) {
	if err != nil {
		releasePartitions(px)
		px = [3]*partition.Partitioned{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.px, s.building = px, false
	if s.done != nil {
		close(s.done)
		s.done = nil
	}
}

// release returns a private set's arenas to the slab pool once no stage can
// touch them.
func (s *Partitions) release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	releasePartitions(s.px)
	s.px = [3]*partition.Partitioned{}
}

// releasePartitions returns the built modes' arenas to the slab pool. Only
// the set's builder-owner calls it: a Partitions for a set it holds, a
// Worker for the set it built from its set-up blob.
func releasePartitions(px [3]*partition.Partitioned) {
	for _, p := range px {
		if p != nil {
			p.Release()
		}
	}
}

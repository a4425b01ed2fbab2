package serve

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"dbtf/internal/core"
	"dbtf/internal/durable"
	"dbtf/internal/tensor"
)

// ErrTensorExists reports an upload under an ID that is already taken;
// tensors are immutable once named so queued jobs can never race an
// overwrite.
var ErrTensorExists = errors.New("serve: tensor id already exists")

// ErrTensorNotFound reports a job spec naming an unknown tensor.
var ErrTensorNotFound = errors.New("serve: tensor not found")

const tensorsDirName = "tensors"

// tensorStore keeps uploaded tensors: durably on disk (crash-safe, see
// durable.WriteFile) and in memory for the engine — every stored tensor is
// resident from Put, or from openTensorStore after a restart, and so, from
// the first job that needs them, are its partitioned unfoldings for the
// server's partition count (core.Partitions). A stored entry is immutable
// and never deleted, so its set is built once per server process and lives
// as long as the tensor. None of a set's block tables and arenas comes from
// the slab pool: each is made at its exact length, and HeldSetBytes counts
// them exactly.
type tensorStore struct {
	dir string
	// n is the server's machine count: every job's M, and its N (a JobSpec
	// cannot set another), so every entry's set is built for n of each.
	n int

	mu sync.Mutex
	// entries maps an id to its tensor's set, or to nil while Put writes
	// the tensor: a pending id is taken, but not found.
	entries map[string]*core.Partitions
}

// estimateTensorBytes is the admission-budget estimate of a queued or
// running job: the tensor's coordinate list (three ints, 24 B, per
// nonzero), as much again as a flat allowance for the run's working state
// (column tasks, lanes, cache tables), plus a fixed overhead. The stored
// set, which outlives its jobs, is not in it: HeldSetBytes counts it.
func estimateTensorBytes(nnz int) int64 {
	return int64(nnz)*48 + 4096
}

func openTensorStore(dataDir string, n int) (*tensorStore, error) {
	dir := filepath.Join(dataDir, tensorsDirName)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &tensorStore{dir: dir, n: n, entries: map[string]*core.Partitions{}}
	files, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		name := f.Name()
		if !strings.HasSuffix(name, ".dbt") {
			continue // crash-orphaned temp file; the rename never happened
		}
		id := strings.TrimSuffix(name, ".dbt")
		t, err := tensor.ReadBinaryFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("serve: corrupt stored tensor %s: %w", name, err)
		}
		s.entries[id] = core.NewPartitions(t, n, n)
	}
	return s, nil
}

// Put stores a new tensor under id, durably and atomically. The id is
// reserved pending while the file is written, so a concurrent upload under
// it fails, and no job can be submitted against it until the write has
// succeeded; a failed write frees it.
func (s *tensorStore) Put(id string, t *tensor.Tensor) error {
	if err := s.reserve(id); err != nil {
		return err
	}
	_, err := durable.WriteFile(s.dir, id+".dbt", t.WriteBinary)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		delete(s.entries, id)
		return err
	}
	s.entries[id] = core.NewPartitions(t, s.n, s.n)
	return nil
}

// reserve marks id pending, or answers ErrTensorExists if it is taken.
func (s *tensorStore) reserve(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[id]; ok {
		return ErrTensorExists
	}
	s.entries[id] = nil
	return nil
}

// Taken reports whether id is stored or pending.
func (s *tensorStore) Taken(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[id]
	return ok
}

// Get returns the entry for id: the tensor and its partitioned set. A
// pending id is not found.
func (s *tensorStore) Get(id string) (*core.Partitions, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.entries[id]
	if t == nil {
		return nil, fmt.Errorf("%w: %q", ErrTensorNotFound, id)
	}
	return t, nil
}

// IDs returns the stored tensor IDs (unordered), none pending.
func (s *tensorStore) IDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.entries))
	for id, set := range s.entries {
		if set != nil {
			ids = append(ids, id)
		}
	}
	return ids
}

// HeldSetBytes returns the bytes the stored tensors' built sets hold, each
// counted exactly (core.Partitions.ResidentBytes).
func (s *tensorStore) HeldSetBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, set := range s.entries {
		if set != nil {
			n += set.ResidentBytes()
		}
	}
	return n
}

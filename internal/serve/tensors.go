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
// as long as the tensor.
type tensorStore struct {
	dir string
	// n is the partition count of every entry's set: the server's machine
	// count, every job's N (a JobSpec cannot set another).
	n int

	mu      sync.Mutex
	entries map[string]*core.Partitions
}

// estimateTensorBytes is the admission-budget estimate for holding the
// tensor plus per-job working state: the coordinate slice (3 ints per
// nonzero) doubled for the unfolded views, plus a fixed overhead.
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
		s.entries[id] = core.NewPartitions(t, n)
	}
	return s, nil
}

// Put stores a new tensor under id, durably and atomically.
func (s *tensorStore) Put(id string, t *tensor.Tensor) error {
	s.mu.Lock()
	if _, ok := s.entries[id]; ok {
		s.mu.Unlock()
		return ErrTensorExists
	}
	// Reserve the ID while writing so concurrent uploads cannot race.
	s.entries[id] = core.NewPartitions(t, s.n)
	s.mu.Unlock()

	if _, err := durable.WriteFile(s.dir, id+".dbt", t.WriteBinary); err != nil {
		s.mu.Lock()
		delete(s.entries, id)
		s.mu.Unlock()
		return err
	}
	return nil
}

// Get returns the entry for id: the tensor and its partitioned set.
func (s *tensorStore) Get(id string) (*core.Partitions, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.entries[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrTensorNotFound, id)
	}
	return t, nil
}

// IDs returns the stored tensor IDs (unordered).
func (s *tensorStore) IDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.entries))
	for id := range s.entries {
		ids = append(ids, id)
	}
	return ids
}

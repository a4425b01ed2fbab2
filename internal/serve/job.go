package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"dbtf/internal/durable"
)

// State is a job's lifecycle state.
type State string

const (
	// StateQueued: admitted, waiting for a worker slot. Evicted and
	// crash-recovered jobs return here.
	StateQueued State = "queued"
	// StateRunning: executing on the shared engine.
	StateRunning State = "running"
	// StateDone: finished; Result is set.
	StateDone State = "done"
	// StateFailed: the engine returned a non-eviction error.
	StateFailed State = "failed"
	// StateCancelled: removed by the client.
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// JobResult is the durable outcome of a finished job.
type JobResult struct {
	// Error is the Boolean reconstruction error |X ⊕ X̂|.
	Error int64 `json:"error"`
	// RelativeError is Error normalized by |X|.
	RelativeError float64 `json:"relative_error"`
	// Iterations is the total alternating iterations executed, summed
	// across every slice the job ran in.
	Iterations int `json:"iterations"`
	// Converged reports whether the tolerance criterion stopped the run.
	Converged bool `json:"converged"`
	// FactorHash is the FNV-1a hash over the binary encodings of A, B
	// and C — the bit-identity fingerprint: an evicted-and-resumed job
	// must report the same hash as an uninterrupted run of its spec.
	FactorHash string `json:"factor_hash"`
	// SimNanos is the simulated cluster time of the last slice.
	SimNanos int64 `json:"sim_nanos"`
}

// Job is the server's record of one admitted factorization job. The
// mutable fields are guarded by the Server's mutex; every state
// transition is persisted crash-safely before it takes effect for
// clients.
type Job struct {
	// ID is the server-assigned identifier.
	ID string `json:"id"`
	// Seq is the admission sequence number; FIFO ties break on it.
	Seq int64 `json:"seq"`
	// Spec is the client's job description.
	Spec JobSpec `json:"spec"`
	// State is the lifecycle state.
	State State `json:"state"`
	// Evictions counts how many times the job was preempted at an
	// iteration boundary and requeued.
	Evictions int `json:"evictions,omitempty"`
	// Restarts counts recoveries from a server crash while running.
	Restarts int `json:"restarts,omitempty"`
	// TensorBytes is the admission memory estimate for the job.
	TensorBytes int64 `json:"tensor_bytes"`
	// Error is the failure message for StateFailed.
	Error string `json:"error,omitempty"`
	// Result is set once the job reaches StateDone.
	Result *JobResult `json:"result,omitempty"`
	// SubmittedNanos/StartedNanos/FinishedNanos are wall-clock
	// timestamps (UnixNano) of the first admission, first slice start,
	// and terminal transition.
	SubmittedNanos int64 `json:"submitted_nanos,omitempty"`
	StartedNanos   int64 `json:"started_nanos,omitempty"`
	FinishedNanos  int64 `json:"finished_nanos,omitempty"`

	// evict asks the running slice to stop at the next iteration
	// boundary; owned by the Server.
	evict bool
	// cancelReq marks a client-requested cancellation so the outcome
	// classifier can tell it apart from a drain-timeout cancel; owned by
	// the Server.
	cancelReq bool
	// cancel aborts the running slice's context; owned by the Server.
	cancel func()
}

// jobsDirName is the metadata directory under the server's data dir.
const jobsDirName = "jobs"

// persistJob writes the job's metadata crash-safely (durable.WriteFile), so
// a crash leaves either the old record or the new one, never a torn file.
func persistJob(dataDir string, j *Job) error {
	_, err := durable.WriteFile(filepath.Join(dataDir, jobsDirName), j.ID+".json", func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(j)
	})
	return err
}

// loadJobs scans the metadata directory and returns every job sorted by
// admission sequence. Jobs recorded as running were interrupted by a
// crash: they are flipped back to queued (counting a restart) so the
// scheduler resumes them from their last checkpoint — the zero-lost-jobs
// invariant across restarts.
func loadJobs(dataDir string) ([]*Job, error) {
	dir := filepath.Join(dataDir, jobsDirName)
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var jobs []*Job
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".json") {
			// Stray temp file from a crash mid-persist; the rename never
			// happened, so the previous record (if any) is authoritative.
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		var j Job
		if err := json.Unmarshal(data, &j); err != nil {
			return nil, fmt.Errorf("serve: corrupt job record %s: %w", name, err)
		}
		if j.State == StateRunning {
			j.State = StateQueued
			j.Restarts++
			if err := persistJob(dataDir, &j); err != nil {
				return nil, err
			}
		}
		jobs = append(jobs, &j)
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].Seq < jobs[b].Seq })
	return jobs, nil
}

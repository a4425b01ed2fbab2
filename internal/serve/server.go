package serve

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"dbtf/internal/boolmat"
	"dbtf/internal/cluster"
	"dbtf/internal/core"
	"dbtf/internal/tensor"
	"dbtf/internal/trace"
)

// Config configures a Server. Zero values select the documented
// defaults.
type Config struct {
	// DataDir is the durable root: job metadata, tensors, checkpoints,
	// and trace streams live under it. Required.
	DataDir string
	// MaxRunning bounds concurrently running jobs (worker slots).
	// Default 2.
	MaxRunning int
	// Machines is the simulated cluster size each job runs on.
	// Default 4.
	Machines int
	// GateSlots bounds concurrently executing cluster tasks across all
	// running jobs — the host-CPU admission gate shared by every job's
	// cluster. Default GOMAXPROCS.
	GateSlots int
	// SliceIterations is the scheduler's timeslice: a running job that
	// has completed this many iterations in its current slice is
	// preempted (checkpoint + requeue) whenever other jobs are waiting,
	// so giant jobs cannot monopolize the worker slots. Negative
	// disables timeslicing; zero means the default 8.
	SliceIterations int
	// DrainTimeout bounds the graceful drain: running jobs get this
	// long to reach an iteration boundary and checkpoint before their
	// contexts are cancelled. Default 30s.
	DrainTimeout time.Duration
	// Admission configures the explicit queue/memory/rate budgets.
	Admission AdmissionConfig
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// maxTensorBytes bounds one tensor upload body.
const maxTensorBytes = 64 << 20

func (c Config) withDefaults() (Config, error) {
	if c.DataDir == "" {
		return c, errors.New("serve: Config.DataDir is required")
	}
	// A negative bound is a misconfiguration, not a default: MaxRunning -1
	// would admit jobs and never run one, GateSlots -1 panics in NewGate.
	if c.MaxRunning < 0 || c.GateSlots < 0 || c.DrainTimeout < 0 {
		return c, fmt.Errorf("serve: Config MaxRunning %d, GateSlots %d, DrainTimeout %v: none may be negative",
			c.MaxRunning, c.GateSlots, c.DrainTimeout)
	}
	if c.MaxRunning == 0 {
		c.MaxRunning = 2
	}
	if c.Machines == 0 {
		c.Machines = 4
	}
	if c.GateSlots == 0 {
		c.GateSlots = runtime.GOMAXPROCS(0)
	}
	if c.SliceIterations == 0 {
		c.SliceIterations = 8
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 30 * time.Second
	}
	// Refuse here what cluster.New would panic on inside a job's goroutine.
	if err := c.clusterConfig().Validate(); err != nil {
		return c, fmt.Errorf("serve: %w", err)
	}
	c.Admission = c.Admission.withDefaults()
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c, nil
}

// clusterConfig is the part of every job's cluster that the server's
// configuration fixes; runSlice adds the shared gate and the job's tracer.
func (c Config) clusterConfig() cluster.Config {
	return cluster.Config{Machines: c.Machines}
}

// Server is the factorization job server: admission, fair queueing,
// bounded execution, eviction, and crash-safe state. Create with New,
// expose with Handler, stop with Drain.
type Server struct {
	cfg   Config
	gate  *cluster.Gate
	store *tensorStore

	mu    sync.Mutex
	jobs  map[string]*Job //dbtf:guardedby mu
	queue *fairQueue      //dbtf:guardedby mu
	adm   *admissionState //dbtf:guardedby mu
	// seq is the next admission sequence number.
	//dbtf:guardedby mu
	seq int64
	// runningCount is the number of occupied worker slots.
	//dbtf:guardedby mu
	runningCount int
	//dbtf:guardedby mu
	draining bool
	// traces holds each job's tracer tee (durable JSONL + live
	// progress); entries persist after job completion for status reads.
	//dbtf:guardedby mu
	traces map[string]*jobTrace
	//dbtf:guardedby mu
	counters counters
	// idle is signalled whenever runningCount decreases.
	idle *sync.Cond
	wg   sync.WaitGroup
}

type jobTrace struct {
	tracer   *trace.Tracer
	progress *progressSink
}

type counters struct {
	admitted  int64
	completed int64
	failed    int64
	cancelled int64
	evictions int64
}

// New opens (or re-opens) a server over dataDir. Jobs recorded as
// queued or running by a previous process are requeued and resume from
// their checkpoints; nothing is lost across a crash or restart.
func New(cfg Config) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	store, err := openTensorStore(cfg.DataDir, cfg.Machines)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		gate:   cluster.NewGate(cfg.GateSlots),
		store:  store,
		jobs:   map[string]*Job{},
		queue:  newFairQueue(),
		adm:    newAdmissionState(),
		traces: map[string]*jobTrace{},
	}
	s.idle = sync.NewCond(&s.mu)
	jobs, err := loadJobs(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range jobs {
		s.jobs[j.ID] = j
		if j.Seq >= s.seq {
			s.seq = j.Seq + 1
		}
		if j.State == StateQueued {
			s.queue.push(j)
			s.adm.memoryBytes += j.TensorBytes
		}
	}
	s.scheduleLocked()
	return s, nil
}

// PutTensor durably stores an uploaded tensor under id. IDs are
// immutable once taken: ErrTensorExists on reuse.
func (s *Server) PutTensor(id string, t *tensor.Tensor) error {
	if err := s.checkTensorID(id); err != nil {
		return err
	}
	return s.store.Put(id, t)
}

// checkTensorID refuses an upload the id alone decides: a malformed id, or
// one already taken (ErrTensorExists). Of two uploads racing for a free id
// both pass; tensorStore.Put lets one through.
func (s *Server) checkTensorID(id string) error {
	if !validIdent(id) {
		return fmt.Errorf("serve: invalid tensor id %q", id)
	}
	if _, err := s.store.Get(id); err == nil {
		return ErrTensorExists
	}
	return nil
}

// TensorIDs lists the stored tensor IDs (unordered).
func (s *Server) TensorIDs() []string { return s.store.IDs() }

// Submit admits one job. On success the job is durably queued; on
// rejection the returned error is an *AdmissionError (shed, retryable)
// or a validation/not-found error.
func (s *Server) Submit(spec *JobSpec) (JobView, error) {
	if err := spec.Validate(); err != nil {
		return JobView{}, err
	}
	set, err := s.store.Get(spec.TensorID)
	if err != nil {
		return JobView{}, err
	}
	bytes := estimateTensorBytes(set.Tensor().NNZ())
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	if s.draining {
		s.adm.shed["draining"]++
		return JobView{}, &AdmissionError{Reason: "draining", RetryAfter: 10 * time.Second,
			Detail: "server is draining; resubmit to its successor"}
	}
	if aerr := s.adm.admit(now, spec, s.cfg.Admission,
		s.queue.len(), s.queue.tenantLen(spec.Tenant), s.runningCount, bytes); aerr != nil {
		return JobView{}, aerr
	}
	j := &Job{
		ID:             fmt.Sprintf("j%08d", s.seq),
		Seq:            s.seq,
		Spec:           *spec,
		State:          StateQueued,
		TensorBytes:    bytes,
		SubmittedNanos: now.UnixNano(),
	}
	s.seq++
	if err := persistJob(s.cfg.DataDir, j); err != nil {
		s.adm.releaseMemory(bytes)
		return JobView{}, fmt.Errorf("serve: persisting job: %w", err)
	}
	s.jobs[j.ID] = j
	s.queue.push(j)
	s.counters.admitted++
	s.scheduleLocked()
	return s.viewLocked(j), nil
}

// scheduleLocked fills free worker slots from the fair queue. Caller
// holds s.mu.
func (s *Server) scheduleLocked() {
	for !s.draining && s.runningCount < s.cfg.MaxRunning {
		j := s.queue.pop()
		if j == nil {
			return
		}
		j.State = StateRunning
		j.evict = false
		j.cancelReq = false
		if j.StartedNanos == 0 {
			j.StartedNanos = time.Now().UnixNano()
		}
		if err := persistJob(s.cfg.DataDir, j); err != nil {
			if perr := s.finishLocked(j, StateFailed, fmt.Errorf("persisting running state: %w", err)); perr != nil {
				s.cfg.Logf("serve: persisting failed job %s: %v", j.ID, perr)
			}
			continue
		}
		ctx, cancel := context.WithCancel(context.Background())
		j.cancel = cancel
		s.runningCount++
		s.wg.Add(1)
		go s.runJob(ctx, j)
	}
}

// finishLocked is the one terminal transition: it moves j to the terminal
// state, stamps the finish time, returns its admission memory, counts the
// outcome, closes its trace stream and persists the record. cause is the
// failure recorded on a StateFailed job, nil otherwise. The persist error
// is returned for the caller to report; the in-memory transition stands
// either way. Caller holds s.mu.
func (s *Server) finishLocked(j *Job, state State, cause error) error {
	j.State = state
	if cause != nil {
		j.Error = cause.Error()
	}
	j.FinishedNanos = time.Now().UnixNano()
	s.adm.releaseMemory(j.TensorBytes)
	switch state {
	case StateDone:
		s.counters.completed++
	case StateFailed:
		s.counters.failed++
	case StateCancelled:
		s.counters.cancelled++
	}
	s.closeTraceLocked(j.ID)
	return persistJob(s.cfg.DataDir, j)
}

// requeueLocked puts a job whose slice ended without a result back in the
// queue. Caller holds s.mu.
func (s *Server) requeueLocked(j *Job) error {
	j.State = StateQueued
	s.queue.push(j)
	return persistJob(s.cfg.DataDir, j)
}

// runJob executes one slice of a job and applies the outcome
// transition. Eviction (core.ErrPreempted) and drain cancellation
// requeue the job; everything else is terminal.
func (s *Server) runJob(ctx context.Context, j *Job) {
	defer s.wg.Done()
	var res *core.Result
	set, err := s.store.Get(j.Spec.TensorID)
	if err == nil {
		res, err = s.runSlice(ctx, j, set)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.runningCount--
	j.cancel = nil
	var perr error
	switch {
	case err == nil:
		j.Result = buildResult(res, set.Tensor().NNZ())
		perr = s.finishLocked(j, StateDone, nil)
	case errors.Is(err, core.ErrPreempted):
		j.Evictions++
		s.counters.evictions++
		perr = s.requeueLocked(j)
	case errors.Is(err, context.Canceled) && j.cancelReq:
		perr = s.finishLocked(j, StateCancelled, nil)
	case errors.Is(err, context.Canceled):
		// Drain-timeout cancellation: the work since the last iteration
		// boundary is lost, but the checkpoint makes the resume
		// bit-identical, so the job just goes back in the queue.
		perr = s.requeueLocked(j)
	default:
		perr = s.finishLocked(j, StateFailed, err)
	}
	if perr != nil {
		s.cfg.Logf("serve: persisting job %s after slice: %v", j.ID, perr)
	}
	s.idle.Broadcast()
	s.scheduleLocked()
}

// runSlice runs the job on a fresh cluster until completion, eviction,
// or cancellation, on the tensor's stored partitioned set: the first job or
// slice to need it builds it through this cluster, every later one reads
// it. Resume is always on: the first slice finds no checkpoint and starts
// fresh; later slices continue bit-identically.
func (s *Server) runSlice(ctx context.Context, j *Job, set *core.Partitions) (*core.Result, error) {
	ccfg := s.cfg.clusterConfig()
	ccfg.Gate, ccfg.Tracer = s.gate, s.traceFor(j.ID)
	cl := cluster.New(ccfg)
	ckdir := filepath.Join(s.cfg.DataDir, "checkpoints", j.ID)
	sliceIters := 0
	opt := j.Spec.Options()
	opt.CheckpointDir, opt.CheckpointEvery, opt.Resume = ckdir, 1, true
	opt.Preempt = func() bool {
		sliceIters++
		if s.evictRequested(j) {
			return true
		}
		return s.cfg.SliceIterations > 0 && sliceIters >= s.cfg.SliceIterations && s.queuedLen() > 0
	}
	return core.DecomposeOn(ctx, set, cl, opt)
}

func (s *Server) evictRequested(j *Job) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.evict
}

func (s *Server) queuedLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queue.len()
}

// traceFor returns the job's tracer, creating the durable
// JSONL-file + live-progress tee on first use. One tracer spans all of
// a job's slices within a server process, so sequence numbers stay
// strictly increasing across evictions; a restarted server appends a
// fresh stream to the same file. Tracing is best-effort: on sink errors
// the job runs untraced.
func (s *Server) traceFor(id string) *trace.Tracer {
	s.mu.Lock()
	defer s.mu.Unlock()
	if jt, ok := s.traces[id]; ok {
		return jt.tracer
	}
	dir := filepath.Join(s.cfg.DataDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		s.cfg.Logf("serve: trace dir: %v", err)
		return nil
	}
	sink, err := newJSONLFileSink(tracePath(s.cfg.DataDir, id))
	if err != nil {
		s.cfg.Logf("serve: trace sink for %s: %v", id, err)
		return nil
	}
	prog := &progressSink{}
	jt := &jobTrace{tracer: trace.New(trace.NewTee(sink, prog)), progress: prog}
	s.traces[id] = jt
	return jt.tracer
}

// tracePath is the durable JSONL stream for a job.
func tracePath(dataDir, id string) string {
	return filepath.Join(dataDir, "traces", id+".jsonl")
}

// closeTraceLocked flushes and closes a terminal job's trace stream;
// the progress snapshot stays readable. Caller holds s.mu.
func (s *Server) closeTraceLocked(id string) {
	if jt, ok := s.traces[id]; ok && jt.tracer != nil {
		if err := jt.tracer.Close(); err != nil {
			s.cfg.Logf("serve: closing trace for %s: %v", id, err)
		}
		jt.tracer = nil
	}
}

// buildResult folds a finished slice's engine result into the durable
// job result, including the bit-identity factor hash.
func buildResult(res *core.Result, nnz int) *JobResult {
	jr := &JobResult{
		Error:      res.Error,
		Iterations: res.Iterations,
		Converged:  res.Converged,
		FactorHash: FactorHash(res.A, res.B, res.C),
		SimNanos:   res.SimTime.Nanoseconds(),
	}
	if nnz > 0 {
		jr.RelativeError = float64(res.Error) / float64(nnz)
	}
	return jr
}

// FactorHash is the bit-identity fingerprint of a factor triple: FNV-1a
// over the binary encodings of A, B, C. Two runs agree on it iff their
// factors are bit-for-bit identical.
func FactorHash(a, b, c *boolmat.FactorMatrix) string {
	h := fnv.New64a()
	var buf []byte
	for _, m := range []*boolmat.FactorMatrix{a, b, c} {
		buf = m.AppendBinary(buf[:0])
		//dbtf:allow-unchecked hash.Hash Write never errors
		h.Write(buf)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// ErrNoJob reports a job id the server has never seen; the HTTP layer
// answers it 404 on every route.
var ErrNoJob = errors.New("serve: no job")

func noJob(id string) error { return fmt.Errorf("%w %q", ErrNoJob, id) }

// Evict asks a running job to stop at its next iteration boundary and
// requeue; queued jobs are untouched (they are already preemptible).
func (s *Server) Evict(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return noJob(id)
	}
	if j.State != StateRunning {
		return fmt.Errorf("serve: job %q is %s, not running", id, j.State)
	}
	j.evict = true
	return nil
}

// Cancel removes a job: queued jobs leave the queue immediately,
// running jobs are cancelled mid-slice. Terminal jobs error.
func (s *Server) Cancel(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return noJob(id)
	}
	switch j.State {
	case StateQueued:
		s.queue.remove(id)
		return s.finishLocked(j, StateCancelled, nil)
	case StateRunning:
		j.cancelReq = true
		if j.cancel != nil {
			j.cancel()
		}
		return nil
	default:
		return fmt.Errorf("serve: job %q already %s", id, j.State)
	}
}

// Drain gracefully stops the server: admission turns 503, running jobs
// are evicted at their next iteration boundary (checkpointing first),
// and jobs that miss the DrainTimeout are cancelled — their checkpoints
// still make the next start resume bit-identically. After Drain returns
// every job is durably queued or terminal: zero lost jobs.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	for _, j := range s.jobs {
		if j.State == StateRunning {
			j.evict = true
		}
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.mu.Lock()
		for s.runningCount > 0 {
			s.idle.Wait()
		}
		s.mu.Unlock()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(s.cfg.DrainTimeout):
		s.cfg.Logf("serve: drain timeout after %v; cancelling stragglers", s.cfg.DrainTimeout)
		s.mu.Lock()
		for _, j := range s.jobs {
			if j.State == StateRunning && j.cancel != nil {
				j.cancel()
			}
		}
		s.mu.Unlock()
		<-done // cancellation is observed between stages; this is bounded
	}
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	for id := range s.traces {
		s.closeTraceLocked(id)
	}
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// JobView is a torn-free snapshot of a job for clients.
type JobView struct {
	Job
	// Progress is the live trace-folded progress, when the job has
	// emitted any events this server lifetime.
	Progress *Progress `json:"progress,omitempty"`
}

// viewLocked snapshots a job. Caller holds s.mu.
func (s *Server) viewLocked(j *Job) JobView {
	v := JobView{Job: *j}
	v.cancel = nil
	if jt, ok := s.traces[j.ID]; ok {
		p := jt.progress.snapshot()
		v.Progress = &p
	}
	return v
}

// JobByID returns a snapshot of one job.
func (s *Server) JobByID(id string) (JobView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return s.viewLocked(j), true
}

// JobList returns snapshots of every job, oldest first. tenant, when
// non-empty, filters.
func (s *Server) JobList(tenant string) []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	views := make([]JobView, 0, len(s.jobs))
	for _, j := range s.jobs {
		if tenant != "" && j.Spec.Tenant != tenant {
			continue
		}
		views = append(views, s.viewLocked(j))
	}
	sort.Slice(views, func(a, b int) bool { return views[a].Seq < views[b].Seq })
	return views
}

// Stats is the server's operational snapshot for /v1/stats.
type Stats struct {
	Queued       int              `json:"queued"`
	Running      int              `json:"running"`
	Admitted     int64            `json:"admitted"`
	Completed    int64            `json:"completed"`
	Failed       int64            `json:"failed"`
	Cancelled    int64            `json:"cancelled"`
	Evictions    int64            `json:"evictions"`
	Shed         map[string]int64 `json:"shed,omitempty"`
	MemoryBytes  int64            `json:"memory_bytes"`
	MemoryBudget int64            `json:"memory_budget"`
	Draining     bool             `json:"draining"`
}

// StatsSnapshot returns the current operational counters.
func (s *Server) StatsSnapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	shed := make(map[string]int64, len(s.adm.shed))
	for k, v := range s.adm.shed {
		shed[k] = v
	}
	return Stats{
		Queued:       s.queue.len(),
		Running:      s.runningCount,
		Admitted:     s.counters.admitted,
		Completed:    s.counters.completed,
		Failed:       s.counters.failed,
		Cancelled:    s.counters.cancelled,
		Evictions:    s.counters.evictions,
		Shed:         shed,
		MemoryBytes:  s.adm.memoryBytes,
		MemoryBudget: s.cfg.Admission.MemoryBudget,
		Draining:     s.draining,
	}
}

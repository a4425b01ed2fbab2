package serve

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dbtf/internal/gen"
	"dbtf/internal/tensor"
)

// testTensor is a small planted tensor that factorizes exactly, so jobs
// finish quickly but still run real engine iterations.
func testTensor(seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	x, _, _, _ := gen.FromFactors(rng, 12, 10, 8, 3, 0.3)
	return x
}

func testServer(t *testing.T, mutate func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		DataDir:    t.TempDir(),
		MaxRunning: 1,
		Machines:   2,
		GateSlots:  2,
		// Disable timeslicing by default; tests that exercise eviction
		// turn it back on or call Evict explicitly.
		SliceIterations: -1,
		DrainTimeout:    20 * time.Second,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func waitState(t *testing.T, s *Server, id string, pred func(JobView) bool, what string) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		v, ok := s.JobByID(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if pred(v) {
			return v
		}
		time.Sleep(2 * time.Millisecond)
	}
	v, _ := s.JobByID(id)
	t.Fatalf("timed out waiting for %s on job %s (state %s)", what, id, v.State)
	return JobView{}
}

func waitTerminal(t *testing.T, s *Server, id string) JobView {
	t.Helper()
	return waitState(t, s, id, func(v JobView) bool { return v.State.Terminal() }, "terminal state")
}

func baseSpec(tensorID string) *JobSpec {
	return &JobSpec{Tenant: "acme", TensorID: tensorID, Rank: 3, MaxIter: 6, MinIter: 6, Seed: 42}
}

func TestSubmitRunsToDone(t *testing.T) {
	s := testServer(t, nil)
	defer s.Drain()
	if err := s.PutTensor("x1", testTensor(7)); err != nil {
		t.Fatalf("PutTensor: %v", err)
	}
	view, err := s.Submit(baseSpec("x1"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if view.State != StateQueued && view.State != StateRunning {
		t.Fatalf("state after submit = %s", view.State)
	}
	done := waitTerminal(t, s, view.ID)
	if done.State != StateDone {
		t.Fatalf("state = %s (error %q), want done", done.State, done.Error)
	}
	if done.Result == nil || done.Result.FactorHash == "" {
		t.Fatalf("result = %+v", done.Result)
	}
	if done.Result.Iterations == 0 {
		t.Fatal("result reports zero iterations")
	}
	// The job record is durable and the trace stream exists.
	if _, err := os.Stat(filepath.Join(s.cfg.DataDir, jobsDirName, view.ID+".json")); err != nil {
		t.Fatalf("job record: %v", err)
	}
	data, err := os.ReadFile(tracePath(s.cfg.DataDir, view.ID))
	if err != nil {
		t.Fatalf("trace stream: %v", err)
	}
	if !strings.Contains(string(data), "iteration_end") {
		t.Fatal("trace stream has no iteration events")
	}
	if done.Progress == nil || done.Progress.Iterations == 0 {
		t.Fatalf("progress = %+v", done.Progress)
	}
}

func TestSameSpecReproducesFactorHash(t *testing.T) {
	s := testServer(t, nil)
	defer s.Drain()
	if err := s.PutTensor("x1", testTensor(7)); err != nil {
		t.Fatal(err)
	}
	v1, err := s.Submit(baseSpec("x1"))
	if err != nil {
		t.Fatal(err)
	}
	v2, err := s.Submit(baseSpec("x1"))
	if err != nil {
		t.Fatal(err)
	}
	r1 := waitTerminal(t, s, v1.ID)
	r2 := waitTerminal(t, s, v2.ID)
	if r1.State != StateDone || r2.State != StateDone {
		t.Fatalf("states = %s, %s", r1.State, r2.State)
	}
	if r1.Result.FactorHash != r2.Result.FactorHash {
		t.Fatalf("same spec produced different factors: %s vs %s",
			r1.Result.FactorHash, r2.Result.FactorHash)
	}
	if r1.Result.Error != r2.Result.Error {
		t.Fatalf("errors differ: %d vs %d", r1.Result.Error, r2.Result.Error)
	}
}

func TestEvictResumesBitIdentical(t *testing.T) {
	s := testServer(t, nil)
	defer s.Drain()
	if err := s.PutTensor("x1", testTensor(7)); err != nil {
		t.Fatal(err)
	}
	// Baseline: the same spec uninterrupted.
	base, err := s.Submit(baseSpec("x1"))
	if err != nil {
		t.Fatal(err)
	}
	baseDone := waitTerminal(t, s, base.ID)
	if baseDone.State != StateDone {
		t.Fatalf("baseline state = %s", baseDone.State)
	}

	// Victim: evict it every time we catch it running, until it has been
	// preempted at least twice, then let it finish.
	victim, err := s.Submit(baseSpec("x1"))
	if err != nil {
		t.Fatal(err)
	}
	evictions := 0
	deadline := time.Now().Add(30 * time.Second)
	for evictions < 2 && time.Now().Before(deadline) {
		v, _ := s.JobByID(victim.ID)
		if v.State.Terminal() {
			break
		}
		if v.State == StateRunning && v.Evictions == evictions {
			if err := s.Evict(victim.ID); err == nil {
				waitState(t, s, victim.ID, func(v JobView) bool {
					return v.Evictions > evictions || v.State.Terminal()
				}, "eviction to land")
				evictions++
			}
		}
		time.Sleep(time.Millisecond)
	}
	done := waitTerminal(t, s, victim.ID)
	if done.State != StateDone {
		t.Fatalf("victim state = %s (error %q)", done.State, done.Error)
	}
	if done.Evictions == 0 {
		t.Skip("job finished before any eviction landed; nothing to compare")
	}
	if done.Result.FactorHash != baseDone.Result.FactorHash {
		t.Fatalf("evicted-and-resumed job diverged: hash %s after %d evictions, baseline %s",
			done.Result.FactorHash, done.Evictions, baseDone.Result.FactorHash)
	}
	if done.Result.Error != baseDone.Result.Error {
		t.Fatalf("errors diverged: %d vs baseline %d", done.Result.Error, baseDone.Result.Error)
	}
}

func TestTimesliceSharesSlotAcrossJobs(t *testing.T) {
	s := testServer(t, func(c *Config) {
		c.SliceIterations = 2 // aggressive timeslice
	})
	defer s.Drain()
	if err := s.PutTensor("x1", testTensor(7)); err != nil {
		t.Fatal(err)
	}
	// Two long jobs on one slot: the timeslicer must preempt the first
	// so the second makes progress before the first finishes.
	long := baseSpec("x1")
	long.MaxIter, long.MinIter = 10, 10
	v1, err := s.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	spec2 := *long
	spec2.Seed = 43
	v2, err := s.Submit(&spec2)
	if err != nil {
		t.Fatal(err)
	}
	r1 := waitTerminal(t, s, v1.ID)
	r2 := waitTerminal(t, s, v2.ID)
	if r1.State != StateDone || r2.State != StateDone {
		t.Fatalf("states = %s, %s", r1.State, r2.State)
	}
	if r1.Evictions == 0 {
		t.Fatal("first job was never timesliced despite a waiting queue")
	}
}

func TestAdmissionRejectsAtServer(t *testing.T) {
	s := testServer(t, func(c *Config) {
		c.Admission = AdmissionConfig{TenantRate: 0.0001, TenantBurst: 1}
	})
	defer s.Drain()
	if err := s.PutTensor("x1", testTensor(7)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(baseSpec("x1")); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	_, err := s.Submit(baseSpec("x1"))
	aerr, ok := err.(*AdmissionError)
	if !ok || aerr.Reason != "rate_limited" {
		t.Fatalf("second submit = %v, want rate_limited AdmissionError", err)
	}
	if aerr.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v", aerr.RetryAfter)
	}
	stats := s.StatsSnapshot()
	if stats.Shed["rate_limited"] != 1 {
		t.Fatalf("shed counters = %v", stats.Shed)
	}
}

func TestSubmitUnknownTensor(t *testing.T) {
	s := testServer(t, nil)
	defer s.Drain()
	if _, err := s.Submit(baseSpec("nope")); err == nil {
		t.Fatal("submitted against a missing tensor")
	}
}

// TestSubmitRejectsSpecsTheEngineRejects pins the admission bugfix: a spec
// whose min_iter exceeds its max_iter (explicit, or the default 10) gets
// 400 at POST /v1/jobs and leaves no job record, queue slot or memory
// charge behind — it used to be admitted and fail inside Decompose.
func TestSubmitRejectsSpecsTheEngineRejects(t *testing.T) {
	s := testServer(t, nil)
	defer s.Drain()
	if err := s.PutTensor("x1", testTensor(7)); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	for _, body := range []string{
		`{"tenant":"acme","tensor_id":"x1","rank":2,"min_iter":20}`,
		`{"tenant":"acme","tensor_id":"x1","rank":2,"max_iter":3,"min_iter":5}`,
	} {
		resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if cerr := resp.Body.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s = %d, want 400", body, resp.StatusCode)
		}
	}
	if jobs := s.JobList(""); len(jobs) != 0 {
		t.Fatalf("rejected specs left job records: %+v", jobs)
	}
	if st := s.StatsSnapshot(); st.Admitted != 0 || st.Queued != 0 || st.MemoryBytes != 0 {
		t.Fatalf("rejected specs took a queue slot or a memory charge: %+v", st)
	}
}

// A job id the server has never seen is 404 on every route that names one;
// evicting or cancelling a job that exists in the wrong state stays 409.
func TestUnknownJobIs404OnEveryRoute(t *testing.T) {
	s := testServer(t, nil)
	defer s.Drain()
	if err := s.PutTensor("x1", testTensor(7)); err != nil {
		t.Fatal(err)
	}
	v, err := s.Submit(baseSpec("x1"))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, v.ID)
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	for _, tc := range []struct {
		method, path string
		want         int
	}{
		{"GET", "/v1/jobs/nope", http.StatusNotFound},
		{"GET", "/v1/jobs/nope/result", http.StatusNotFound},
		{"GET", "/v1/jobs/nope/trace", http.StatusNotFound},
		{"POST", "/v1/jobs/nope/evict", http.StatusNotFound},
		{"DELETE", "/v1/jobs/nope", http.StatusNotFound},
		{"POST", "/v1/jobs/" + v.ID + "/evict", http.StatusConflict},
		{"DELETE", "/v1/jobs/" + v.ID, http.StatusConflict},
	} {
		req, err := http.NewRequest(tc.method, hs.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if cerr := resp.Body.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s = %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
	}
}

// TestHTTPRoutes drives the routes no other test reaches through Handler():
// the upload's refusals (the id is judged before the body is parsed, so a
// bad or taken id answers 400 / 409 even when the body is garbage), the three
// listings, and the health check on both sides of Drain.
func TestHTTPRoutes(t *testing.T) {
	s := testServer(t, nil)
	defer s.Drain()
	var upload bytes.Buffer
	if err := testTensor(7).WriteBinary(&upload); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for _, tc := range []struct {
		name, method, path string
		body               []byte
		before             func()
		status             int
		contains           string
	}{
		{name: "upload", method: "POST", path: "/v1/tensors/x1", body: upload.Bytes(), status: http.StatusCreated, contains: `"nnz"`},
		{name: "bad id, garbage body", method: "POST", path: "/v1/tensors/no.dots", body: []byte("garbage"), status: http.StatusBadRequest, contains: "invalid tensor id"},
		{name: "taken id, garbage body", method: "POST", path: "/v1/tensors/x1", body: []byte("garbage"), status: http.StatusConflict, contains: "already exists"},
		{name: "free id, garbage body", method: "POST", path: "/v1/tensors/x2", body: []byte("garbage"), status: http.StatusBadRequest},
		{name: "list tensors", method: "GET", path: "/v1/tensors", status: http.StatusOK, contains: `"x1"`},
		{name: "list a tenant's jobs", method: "GET", path: "/v1/jobs?tenant=acme", status: http.StatusOK, contains: `"tenant": "acme"`,
			before: func() {
				v, err := s.Submit(baseSpec("x1"))
				if err != nil {
					t.Fatal(err)
				}
				waitTerminal(t, s, v.ID)
			}},
		{name: "list nobody's jobs", method: "GET", path: "/v1/jobs?tenant=nobody", status: http.StatusOK, contains: `"jobs": []`},
		{name: "stats", method: "GET", path: "/v1/stats", status: http.StatusOK, contains: `"admitted": 1`},
		{name: "healthy", method: "GET", path: "/healthz", status: http.StatusOK, contains: "ok"},
		{name: "draining", method: "GET", path: "/healthz", status: http.StatusServiceUnavailable, contains: "draining", before: s.Drain},
	} {
		if tc.before != nil {
			tc.before()
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, bytes.NewReader(tc.body)))
		if rec.Code != tc.status || !strings.Contains(rec.Body.String(), tc.contains) {
			t.Errorf("%s: %s %s = %d %s, want %d containing %q", tc.name, tc.method, tc.path, rec.Code, rec.Body, tc.status, tc.contains)
		}
	}
	if ids := s.TensorIDs(); len(ids) != 1 {
		t.Fatalf("refused uploads left tensors behind: %v", ids)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	s := testServer(t, nil)
	defer s.Drain()
	if err := s.PutTensor("x1", testTensor(7)); err != nil {
		t.Fatal(err)
	}
	long := baseSpec("x1")
	long.MaxIter, long.MinIter = 50, 50
	v1, err := s.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := s.Submit(baseSpec("x1"))
	if err != nil {
		t.Fatal(err)
	}
	// v2 waits behind v1 on the single slot; cancel it while queued.
	if err := s.Cancel(v2.ID); err != nil {
		// It may have started if v1 finished implausibly fast; then the
		// running-cancel path applies.
		t.Logf("queued cancel raced to running: %v", err)
	}
	got := waitTerminal(t, s, v2.ID)
	if got.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", got.State)
	}
	if r1 := waitTerminal(t, s, v1.ID); r1.State != StateDone {
		t.Fatalf("unrelated job state = %s", r1.State)
	}
}

func TestDrainZeroLostJobsAndRestartResumes(t *testing.T) {
	dir := t.TempDir()
	s := testServer(t, func(c *Config) { c.DataDir = dir })
	if err := s.PutTensor("x1", testTensor(7)); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 4; i++ {
		spec := baseSpec("x1")
		spec.Seed = int64(100 + i)
		spec.MaxIter, spec.MinIter = 8, 8
		v, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, v.ID)
	}
	// Let the first job get going, then drain mid-flight.
	waitState(t, s, ids[0], func(v JobView) bool {
		return v.State == StateRunning || v.State.Terminal()
	}, "first job to start")
	s.Drain()

	// Zero lost jobs: every submitted job is durably queued or terminal.
	for _, id := range ids {
		v, ok := s.JobByID(id)
		if !ok {
			t.Fatalf("job %s lost across drain", id)
		}
		if v.State == StateRunning {
			t.Fatalf("job %s still running after Drain", id)
		}
	}
	if _, err := s.Submit(baseSpec("x1")); err == nil {
		t.Fatal("draining server accepted a submit")
	}

	// Restart over the same data dir: queued jobs resume to completion.
	s2 := testServer(t, func(c *Config) { c.DataDir = dir })
	defer s2.Drain()
	for _, id := range ids {
		v := waitTerminal(t, s2, id)
		if v.State != StateDone {
			t.Fatalf("job %s after restart = %s (error %q)", id, v.State, v.Error)
		}
	}
	// And the recovered results are still bit-identical to fresh runs.
	fresh := baseSpec("x1")
	fresh.Seed, fresh.MaxIter, fresh.MinIter = 100, 8, 8
	fv, err := s2.Submit(fresh)
	if err != nil {
		t.Fatal(err)
	}
	fd := waitTerminal(t, s2, fv.ID)
	rv, _ := s2.JobByID(ids[0])
	if fd.Result.FactorHash != rv.Result.FactorHash {
		t.Fatalf("restart-resumed hash %s != fresh-run hash %s",
			rv.Result.FactorHash, fd.Result.FactorHash)
	}
}

func TestCrashRecoveryFlipsRunningToQueued(t *testing.T) {
	dir := t.TempDir()
	s := testServer(t, func(c *Config) { c.DataDir = dir })
	if err := s.PutTensor("x1", testTensor(7)); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	// Simulate a crash mid-run: a job record durably marked running with
	// no process behind it.
	j := &Job{ID: "j00000099", Seq: 99, Spec: *baseSpec("x1"), State: StateRunning,
		TensorBytes: 100}
	if err := persistJob(dir, j); err != nil {
		t.Fatal(err)
	}
	s2 := testServer(t, func(c *Config) { c.DataDir = dir })
	defer s2.Drain()
	v := waitTerminal(t, s2, "j00000099")
	if v.State != StateDone {
		t.Fatalf("recovered job = %s (error %q)", v.State, v.Error)
	}
	if v.Restarts != 1 {
		t.Fatalf("Restarts = %d, want 1", v.Restarts)
	}
}

func TestLoadJobsSkipsTempAndRejectsCorrupt(t *testing.T) {
	dir := t.TempDir()
	if err := persistJob(dir, &Job{ID: "j1", Seq: 1, State: StateDone}); err != nil {
		t.Fatal(err)
	}
	// A crash-orphaned temp file is ignored.
	if err := os.WriteFile(filepath.Join(dir, jobsDirName, "job-123.tmp"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	jobs, err := loadJobs(dir)
	if err != nil {
		t.Fatalf("loadJobs: %v", err)
	}
	if len(jobs) != 1 || jobs[0].ID != "j1" {
		t.Fatalf("jobs = %+v", jobs)
	}
	// A torn .json record is a hard error, not a silent skip.
	if err := os.WriteFile(filepath.Join(dir, jobsDirName, "j2.json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadJobs(dir); err == nil {
		t.Fatal("loadJobs accepted a corrupt record")
	}
}

func TestJobListFiltersAndOrders(t *testing.T) {
	s := testServer(t, func(c *Config) { c.MaxRunning = 2 })
	defer s.Drain()
	if err := s.PutTensor("x1", testTensor(7)); err != nil {
		t.Fatal(err)
	}
	for i, tenant := range []string{"a", "b", "a"} {
		spec := baseSpec("x1")
		spec.Tenant = tenant
		spec.Seed = int64(i)
		if _, err := s.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	all := s.JobList("")
	if len(all) != 3 {
		t.Fatalf("len(all) = %d", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].Seq <= all[i-1].Seq {
			t.Fatalf("list not ordered by seq: %v", all)
		}
	}
	if got := len(s.JobList("a")); got != 2 {
		t.Fatalf("tenant a jobs = %d, want 2", got)
	}
	if got := len(s.JobList("nobody")); got != 0 {
		t.Fatalf("unknown tenant jobs = %d, want 0", got)
	}
}

func TestTensorStoreDurableAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := openTensorStore(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	x := testTensor(5)
	if err := st.Put("t1", x); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("t1", x); err != ErrTensorExists {
		t.Fatalf("duplicate Put = %v, want ErrTensorExists", err)
	}
	st2, err := openTensorStore(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := st2.Get("t1")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Tensor().Equal(x) {
		t.Fatal("tensor changed across reopen")
	}
	if _, err := st2.Get("missing"); err == nil {
		t.Fatal("Get(missing) succeeded")
	}
}

func TestFactorHashDistinguishesFactors(t *testing.T) {
	// Sanity: different tensors produce different hashes (with
	// overwhelming probability), identical runs identical ones.
	s := testServer(t, func(c *Config) { c.MaxRunning = 2 })
	defer s.Drain()
	if err := s.PutTensor("x1", testTensor(7)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutTensor("x2", testTensor(8)); err != nil {
		t.Fatal(err)
	}
	v1, err := s.Submit(baseSpec("x1"))
	if err != nil {
		t.Fatal(err)
	}
	v2, err := s.Submit(baseSpec("x2"))
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := waitTerminal(t, s, v1.ID), waitTerminal(t, s, v2.ID)
	if r1.Result.FactorHash == r2.Result.FactorHash {
		t.Fatalf("different tensors, same factor hash %s", r1.Result.FactorHash)
	}
}

func TestConfigRequiresDataDir(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted empty DataDir")
	}
}

// A machine count cluster.New would panic on must be refused when the
// server is built, not when the first job's goroutine builds its cluster;
// so must a GateSlots cluster.NewGate would panic on, and a MaxRunning
// that would admit jobs and never run one.
func TestConfigRejectsBadMachines(t *testing.T) {
	for name, cfg := range map[string]Config{
		"Machines":     {Machines: -1},
		"MaxRunning":   {MaxRunning: -1},
		"GateSlots":    {GateSlots: -1},
		"DrainTimeout": {DrainTimeout: -1},
	} {
		cfg.DataDir = t.TempDir()
		if _, err := New(cfg); err == nil {
			t.Errorf("New accepted %s -1", name)
		}
	}
}

func TestServerStatsCountersAdvance(t *testing.T) {
	s := testServer(t, nil)
	defer s.Drain()
	if err := s.PutTensor("x1", testTensor(7)); err != nil {
		t.Fatal(err)
	}
	n := 3
	var ids []string
	for i := 0; i < n; i++ {
		spec := baseSpec("x1")
		spec.Seed = int64(i)
		v, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	for _, id := range ids {
		waitTerminal(t, s, id)
	}
	stats := s.StatsSnapshot()
	if stats.Admitted != int64(n) || stats.Completed != int64(n) {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.MemoryBytes != 0 {
		t.Fatalf("memory not released: %d", stats.MemoryBytes)
	}
	if stats.Queued != 0 || stats.Running != 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestDrainRequeuesRunningJobViaCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := testServer(t, func(c *Config) { c.DataDir = dir })
	if err := s.PutTensor("x1", testTensor(7)); err != nil {
		t.Fatal(err)
	}
	long := baseSpec("x1")
	long.MaxIter, long.MinIter = 40, 40
	v, err := s.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, v.ID, func(jv JobView) bool {
		return jv.State == StateRunning || jv.State.Terminal()
	}, "job to start")
	s.Drain()
	jv, _ := s.JobByID(v.ID)
	if jv.State == StateRunning {
		t.Fatalf("running after drain")
	}
	if jv.State.Terminal() && jv.State != StateDone {
		t.Fatalf("drained job = %s (error %q)", jv.State, jv.Error)
	}
	if jv.State == StateQueued {
		// Checkpoint must exist so the restart resumes, not restarts.
		ckdir := filepath.Join(dir, "checkpoints", v.ID)
		entries, err := os.ReadDir(ckdir)
		if err != nil || len(entries) == 0 {
			t.Fatalf("no checkpoint after drain eviction: %v %v", entries, err)
		}
	}
	s2 := testServer(t, func(c *Config) { c.DataDir = dir })
	defer s2.Drain()
	final := waitTerminal(t, s2, v.ID)
	if final.State != StateDone {
		t.Fatalf("after restart = %s (error %q)", final.State, final.Error)
	}
}

func TestManySmallJobsAllComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := testServer(t, func(c *Config) {
		c.MaxRunning = 3
		c.SliceIterations = 3
	})
	defer s.Drain()
	for i := 0; i < 3; i++ {
		if err := s.PutTensor(fmt.Sprintf("x%d", i), testTensor(int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	var ids []string
	for i := 0; i < 12; i++ {
		spec := baseSpec(fmt.Sprintf("x%d", i%3))
		spec.Tenant = fmt.Sprintf("tenant%d", i%4)
		spec.Seed = int64(i)
		spec.MaxIter, spec.MinIter = 5, 5
		v, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, v.ID)
	}
	for _, id := range ids {
		if v := waitTerminal(t, s, id); v.State != StateDone {
			t.Fatalf("job %s = %s (error %q)", id, v.State, v.Error)
		}
	}
}

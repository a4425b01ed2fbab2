package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dbtf/internal/boolmat"
	"dbtf/internal/partition"
	"dbtf/internal/tensor"
)

// testPlanted is a small planted tensor that factorizes exactly, so jobs
// finish quickly but still run real engine iterations.
func testPlanted(seed int64) planted { return planted{seed: seed, dims: [3]int{12, 10, 8}, rank: 3} }

func testTensor(seed int64) *tensor.Tensor { return testPlanted(seed).tensor() }

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

// TestPendingTensorIsTakenButNotFound: while Put writes a tensor its id is
// pending: a second upload under it is refused as taken, but no job can be
// submitted against it, it is not listed, and it holds no set.
func TestPendingTensorIsTakenButNotFound(t *testing.T) {
	s := testServer(t, nil)
	defer s.Drain()
	if err := s.store.reserve("t1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.store.Get("t1"); !errors.Is(err, ErrTensorNotFound) {
		t.Errorf("Get of a pending id = %v, want ErrTensorNotFound", err)
	}
	if _, err := s.Submit(baseSpec("t1")); !errors.Is(err, ErrTensorNotFound) {
		t.Errorf("Submit against a pending id = %v, want ErrTensorNotFound", err)
	}
	if err := s.checkTensorID("t1"); err != ErrTensorExists {
		t.Errorf("checkTensorID of a pending id = %v, want ErrTensorExists", err)
	}
	if err := s.store.Put("t1", testTensor(5)); err != ErrTensorExists {
		t.Errorf("Put under a pending id = %v, want ErrTensorExists", err)
	}
	if ids := s.TensorIDs(); len(ids) != 0 {
		t.Errorf("the store lists %v, a pending id among them", ids)
	}
	if st := s.StatsSnapshot(); st.Admitted != 0 || st.HeldSetBytes != 0 {
		t.Errorf("a pending id left %+v", st)
	}
}

// TestFailedTensorWriteLeavesNoEntry: an upload whose rename fails — a
// directory already sits at tensors/<id>.dbt — is an error and leaves no
// entry, pending or stored, behind.
func TestFailedTensorWriteLeavesNoEntry(t *testing.T) {
	dir := t.TempDir()
	st, err := openTensorStore(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, tensorsDirName, "t1.dbt"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("t1", testTensor(5)); err == nil || err == ErrTensorExists {
		t.Fatalf("Put over a directory = %v, want the rename's error", err)
	}
	if st.Taken("t1") {
		t.Error("a failed upload left its id taken")
	}
	if _, err := st.Get("t1"); !errors.Is(err, ErrTensorNotFound) {
		t.Errorf("Get after a failed upload = %v, want ErrTensorNotFound", err)
	}
}

// TestStatsCountHeldSetBytes: held_set_bytes is 0 until a job has built a
// stored tensor's set, and then that set's exact bytes: its partitionings
// at their exact length (partition.FromTensorExact), N = M = the server's
// machines. It reads one or the other while the job runs and builds it.
func TestStatsCountHeldSetBytes(t *testing.T) {
	s := testServer(t, nil)
	defer s.Drain()
	x := testTensor(7)
	if err := s.PutTensor("x1", x); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	held := func() int64 {
		resp, err := http.Get(hs.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st Stats
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st.HeldSetBytes
	}
	if got := held(); got != 0 {
		t.Fatalf("held_set_bytes before any job = %d, want 0", got)
	}
	i, j, k := x.Dims()
	var want int64
	for mode := tensor.Mode1; mode <= tensor.Mode3; mode++ {
		carry := partition.NewCarry([3]int{i, j, k}, mode, s.cfg.Machines, s.cfg.Machines)
		want += partition.FromTensorExact(x, mode, s.cfg.Machines, carry).ResidentBytes()
	}
	v, err := s.Submit(baseSpec("x1"))
	if err != nil {
		t.Fatal(err)
	}
	for !v.State.Terminal() {
		if got := held(); got != 0 && got != want {
			t.Fatalf("held_set_bytes while the job runs = %d, want 0 or the set's exact %d", got, want)
		}
		v, _ = s.JobByID(v.ID)
	}
	if v.State != StateDone {
		t.Fatalf("job ended %s", v.State)
	}
	if got := held(); got != want || want == 0 {
		t.Errorf("held_set_bytes after a job = %d, want the set's exact %d", got, want)
	}
}

// FactorHash is a bit-identity fingerprint: equal triples hash equal, and
// flipping any one bit of A, B or C changes the hash.
func TestFactorHashDistinguishesFactors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fs := [3]*boolmat.FactorMatrix{boolmat.RandomFactor(rng, 5, 3, 0.5), boolmat.RandomFactor(rng, 4, 3, 0.5), boolmat.RandomFactor(rng, 6, 3, 0.5)}
	want := FactorHash(fs[0], fs[1], fs[2])
	if got := FactorHash(fs[0].Clone(), fs[1].Clone(), fs[2].Clone()); got != want {
		t.Fatalf("equal factors hash %s and %s", got, want)
	}
	for m, f := range fs {
		for i := 0; i < f.Rows(); i++ {
			for c := 0; c < f.Rank(); c++ {
				flipped := fs
				flipped[m] = f.Clone()
				flipped[m].Set(i, c, !f.Get(i, c))
				if FactorHash(flipped[0], flipped[1], flipped[2]) == want {
					t.Errorf("flipping entry (%d, %d) of factor %d leaves the hash %s", i, c, m, want)
				}
			}
		}
	}
}

// TestFactorHashGolden pins the hash of fixed triples, so streaming the
// encoding through a buffer hashes the same bytes as the whole encoding did:
// 130 rows span three fills of the buffer, 63 fill it exactly, 64 spill one
// row over, and 0 hash the header alone.
func TestFactorHashGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	a, b, c := boolmat.RandomFactor(rng, 130, 5, 0.5), boolmat.RandomFactor(rng, 63, 5, 0.5), boolmat.RandomFactor(rng, 7, 5, 0.5)
	for _, tc := range []struct {
		fs   [3]*boolmat.FactorMatrix
		want string
	}{
		{[3]*boolmat.FactorMatrix{a, b, c}, "cdef27b831adee97"},
		{[3]*boolmat.FactorMatrix{boolmat.NewFactor(0, 1), boolmat.NewFactor(1, 1), boolmat.NewFactor(64, 64)}, "4dd11fdde3bfddc4"},
	} {
		if got := FactorHash(tc.fs[0], tc.fs[1], tc.fs[2]); got != tc.want {
			t.Errorf("factors of %d, %d and %d rows hash %s, want %s", tc.fs[0].Rows(), tc.fs[1].Rows(), tc.fs[2].Rows(), got, tc.want)
		}
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
		// A negative admission bound would reach admit and shed every
		// submit against a limit of -1.
		"MaxQueued":          {Admission: AdmissionConfig{MaxQueued: -1}},
		"MaxQueuedPerTenant": {Admission: AdmissionConfig{MaxQueuedPerTenant: -1}},
		"MemoryBudget":       {Admission: AdmissionConfig{MemoryBudget: -1}},
		"TenantRate":         {Admission: AdmissionConfig{TenantRate: -1}},
		"TenantRate NaN":     {Admission: AdmissionConfig{TenantRate: math.NaN()}},
		"TenantRate +Inf":    {Admission: AdmissionConfig{TenantRate: math.Inf(1)}},
		"TenantBurst":        {Admission: AdmissionConfig{TenantBurst: -1}},
		"TenantBurst NaN":    {Admission: AdmissionConfig{TenantBurst: math.NaN()}},
		"TenantBurst +Inf":   {Admission: AdmissionConfig{TenantBurst: math.Inf(1)}},
	} {
		cfg.DataDir = t.TempDir()
		if _, err := New(cfg); err == nil {
			t.Errorf("New accepted %s", name)
		}
	}
}

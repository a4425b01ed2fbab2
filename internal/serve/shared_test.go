package serve

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"dbtf/internal/cluster"
	"dbtf/internal/core"
	"dbtf/internal/tensor"
	"dbtf/internal/trace"
)

// servedTrace fetches a job's durable trace through GET /v1/jobs/{id}/trace.
func servedTrace(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace of %s: status %d, %v", id, resp.StatusCode, err)
	}
	return body
}

// setUpEvents counts what building a partitioned set leaves on a trace:
// unfold sections, partition stages and shuffle charges.
func setUpEvents(events []*trace.Event) (unfolds, partitions, shuffles int) {
	for _, ev := range events {
		switch {
		case ev.Type == trace.DriverBegin && ev.Name == "unfold":
			unfolds++
		case ev.Type == trace.StageBegin && ev.Name == "partition":
			partitions++
		case ev.Type == trace.Shuffle:
			shuffles++
		}
	}
	return unfolds, partitions, shuffles
}

// iterationErrors is the error trajectory a served trace records, across
// every slice and server process the job ran in.
func iterationErrors(events []*trace.Event) []int64 {
	var errs []int64
	for _, ev := range events {
		if ev.Type == trace.IterationEnd && ev.Error != nil {
			errs = append(errs, *ev.Error)
		}
	}
	return errs
}

// matchesDecompose holds a served job to a direct core.Decompose of its
// spec on a cluster of the server's size: the same factors, bit for bit,
// and the same error after every iteration.
func matchesDecompose(t *testing.T, v JobView, x *tensor.Tensor, machines int, events []*trace.Event) {
	t.Helper()
	if v.State != StateDone {
		t.Fatalf("job %s ended %s (%s)", v.ID, v.State, v.Error)
	}
	want, err := core.Decompose(context.Background(), x, cluster.New(cluster.Config{Machines: machines}), v.Spec.Options())
	if err != nil {
		t.Fatal(err)
	}
	if hash := FactorHash(want.A, want.B, want.C); v.Result.FactorHash != hash {
		t.Errorf("job %s: factor hash %s, a direct Decompose gives %s", v.ID, v.Result.FactorHash, hash)
	}
	if got := iterationErrors(events); !slices.Equal(got, want.IterationErrors) {
		t.Errorf("job %s: iteration errors %v, a direct Decompose gives %v", v.ID, got, want.IterationErrors)
	}
}

// TestServedTracesValidate: a served job's durable trace, fetched over
// HTTP, passes trace.ValidateJSONL — every run_end equals the fold of its
// run's events — for the job that builds the tensor's partitioned set (its
// run holds the unfold, the partition stage and the three shuffles), a later
// job on the same tensor (none of them) and an evicted job (two runs, one
// per slice, neither building); and each job's factors and error trajectory
// are a direct Decompose's.
func TestServedTracesValidate(t *testing.T) {
	s := testServer(t, nil)
	defer s.Drain()
	x := testTensor(7)
	if err := s.PutTensor("x1", x); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	check := func(v JobView, runs, unfolds, partitions, shuffles int) {
		t.Helper()
		body := servedTrace(t, hs.URL, v.ID)
		sum, err := trace.ValidateJSONL(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("job %s: served trace does not validate: %v", v.ID, err)
		}
		events, err := trace.DecodeJSONL(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		u, p, sh := setUpEvents(events)
		if sum.Runs != runs || u != unfolds || p != partitions || sh != shuffles {
			t.Errorf("job %s: %d runs, %d unfolds, %d partition stages, %d shuffles; want %d, %d, %d, %d",
				v.ID, sum.Runs, u, p, sh, runs, unfolds, partitions, shuffles)
		}
		matchesDecompose(t, v, x, s.cfg.Machines, events)
	}

	first, err := s.Submit(baseSpec("x1"))
	if err != nil {
		t.Fatal(err)
	}
	check(waitTerminal(t, s, first.ID), 1, 1, 1, 3)

	later := baseSpec("x1")
	later.Seed = 43
	v, err := s.Submit(later)
	if err != nil {
		t.Fatal(err)
	}
	check(waitTerminal(t, s, v.ID), 1, 0, 0, 0)

	long := baseSpec("x1")
	long.Seed, long.MaxIter, long.MinIter = 44, 100, 100
	v, err = s.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, v.ID, func(v JobView) bool { return v.State == StateRunning }, "running")
	if err := s.Evict(v.ID); err != nil {
		t.Fatal(err)
	}
	evicted := waitTerminal(t, s, v.ID)
	if evicted.Evictions != 1 {
		t.Fatalf("job %s ended after %d evictions, want 1", v.ID, evicted.Evictions)
	}
	check(evicted, 2, 0, 0, 0)
}

// TestSharedSetServedAfterRestart: a restarted server rebuilds a tensor's
// set on first use, and concurrent first jobs share one build. A drained
// server leaves a job evicted mid-run on x1 and two jobs queued on x2; the
// restarted server starts all three at once. The resumed job's post-restart
// run builds x1's set; of the two x2 jobs exactly one runs the partition
// stage; and all three equal a direct Decompose.
func TestSharedSetServedAfterRestart(t *testing.T) {
	dir := t.TempDir()
	s := testServer(t, func(c *Config) { c.DataDir = dir })
	xs := map[string]*tensor.Tensor{"x1": testTensor(7), "x2": testTensor(8)}
	for id, x := range xs {
		if err := s.PutTensor(id, x); err != nil {
			t.Fatal(err)
		}
	}
	hog := baseSpec("x1")
	hog.MaxIter, hog.MinIter = 300, 300
	hv, err := s.Submit(hog)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, hv.ID, func(v JobView) bool { return v.State == StateRunning }, "running")
	ids := []string{hv.ID}
	for seed := int64(1); seed <= 2; seed++ {
		spec := baseSpec("x2")
		spec.Seed = seed
		v, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	s.Drain()
	for _, id := range ids {
		if v, _ := s.JobByID(id); v.State != StateQueued {
			t.Fatalf("job %s is %s after the drain, want queued", id, v.State)
		}
	}

	s2 := testServer(t, func(c *Config) { c.DataDir, c.MaxRunning = dir, 3 })
	defer s2.Drain()
	hs := httptest.NewServer(s2.Handler())
	defer hs.Close()
	builds := 0
	for i, id := range ids {
		v := waitTerminal(t, s2, id)
		events, err := trace.DecodeJSONL(bytes.NewReader(servedTrace(t, hs.URL, id)))
		if err != nil {
			t.Fatal(err)
		}
		matchesDecompose(t, v, xs[v.Spec.TensorID], s2.cfg.Machines, events)
		last := 0
		for k, ev := range events {
			if ev.Type == trace.RunBegin {
				last = k
			}
		}
		_, partitions, _ := setUpEvents(events[last:])
		if i == 0 {
			if v.Evictions != 1 || partitions != 1 {
				t.Errorf("resumed job %s: %d evictions, %d partition stages after the restart; want 1 and 1", id, v.Evictions, partitions)
			}
			continue
		}
		if _, err := trace.Validate(events); err != nil {
			t.Errorf("job %s: served trace does not validate: %v", id, err)
		}
		builds += partitions
	}
	if builds != 1 {
		t.Errorf("the two first jobs on x2 ran %d partition stages between them, want 1", builds)
	}
}

// Package loadgen drives a dbtf-serve instance through its HTTP API
// with a seeded open-loop workload — many small jobs across competing
// tenants, a few giant ones, an over-quota tenant, and chaotic forced
// evictions — then verifies the service invariants: every admitted job
// reaches a terminal state (zero lost jobs), over-budget submissions
// are shed with 429/503 instead of degrading the server, and
// evicted-and-resumed jobs produce factors bit-identical to a local
// uninterrupted run of the same spec.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"dbtf/internal/cluster"
	"dbtf/internal/core"
	"dbtf/internal/gen"
	"dbtf/internal/serve"
	"dbtf/internal/tensor"
)

// Scenario is a seeded workload description. The same scenario
// generates the same tensors, specs, and arrival schedule.
type Scenario struct {
	// Seed drives every random choice in the workload.
	Seed int64
	// Tenants is the number of well-behaved tenants.
	Tenants int
	// SmallJobs is the total number of small jobs across those tenants.
	SmallJobs int
	// GiantJobs is the number of giant jobs (bigger tensor, more
	// iterations) mixed into the workload.
	GiantJobs int
	// OverQuota adds one extra tenant that submits far above its rate
	// limit; its sheds exercise the 429 path.
	OverQuota bool
	// MeanArrival is the mean inter-arrival gap per tenant goroutine in
	// the open loop. Zero means 2ms.
	MeanArrival time.Duration
	// EvictInterval is the chaos cadence: every interval one random
	// running job is forcibly evicted. Zero disables chaos.
	EvictInterval time.Duration
	// Machines must match the server's cluster size so the local
	// bit-identity verification reproduces the service's runs.
	Machines int
	// VerifySample bounds how many completed jobs are re-run locally for
	// bit-identity (evicted jobs are verified first). Zero means 8.
	VerifySample int
}

func (sc Scenario) withDefaults() Scenario {
	if sc.Tenants == 0 {
		sc.Tenants = 4
	}
	if sc.MeanArrival == 0 {
		sc.MeanArrival = 2 * time.Millisecond
	}
	if sc.Machines == 0 {
		sc.Machines = 2
	}
	if sc.VerifySample == 0 {
		sc.VerifySample = 8
	}
	return sc
}

// TenantStats is one tenant's slice of the report.
type TenantStats struct {
	Submitted int
	Admitted  int
	Shed      int
	Completed int
	Evictions int
}

// Report is the outcome of one scenario run.
type Report struct {
	Tenants map[string]*TenantStats
	// Lost counts admitted jobs that never reached a terminal state —
	// the invariant is that this is always zero.
	Lost int
	// Failed counts jobs that ended in the failed state.
	Failed int
	// Verified and VerifyMismatches count the local bit-identity checks.
	Verified         int
	VerifyMismatches int
	// Latency quantiles over submit→done, and total throughput.
	LatencyP50, LatencyP95, LatencyMax time.Duration
	Elapsed                            time.Duration
	Throughput                         float64 // completed jobs/sec
	// Jain is Jain's fairness index over the well-behaved tenants'
	// completed-job counts: 1.0 is perfectly fair, 1/n is maximally
	// unfair.
	Jain float64
	// Evictions is the total forced+timeslice preemptions observed.
	Evictions int
}

// Markdown renders the report as a table for EXPERIMENTS.md.
func (r *Report) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "| tenant | submitted | admitted | shed (429) | completed | evictions |\n")
	fmt.Fprintf(&b, "|---|---|---|---|---|---|\n")
	names := make([]string, 0, len(r.Tenants))
	for name := range r.Tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ts := r.Tenants[name]
		fmt.Fprintf(&b, "| %s | %d | %d | %d | %d | %d |\n",
			name, ts.Submitted, ts.Admitted, ts.Shed, ts.Completed, ts.Evictions)
	}
	fmt.Fprintf(&b, "\n| metric | value |\n|---|---|\n")
	fmt.Fprintf(&b, "| lost jobs | %d |\n", r.Lost)
	fmt.Fprintf(&b, "| failed jobs | %d |\n", r.Failed)
	fmt.Fprintf(&b, "| latency p50 / p95 / max | %v / %v / %v |\n",
		r.LatencyP50.Round(time.Millisecond), r.LatencyP95.Round(time.Millisecond), r.LatencyMax.Round(time.Millisecond))
	fmt.Fprintf(&b, "| throughput | %.1f jobs/s |\n", r.Throughput)
	fmt.Fprintf(&b, "| Jain fairness (well-behaved tenants) | %.3f |\n", r.Jain)
	fmt.Fprintf(&b, "| bit-identity checks | %d verified, %d mismatches |\n", r.Verified, r.VerifyMismatches)
	return b.String()
}

// jobRecord tracks one submission end to end.
type jobRecord struct {
	id        string
	tenant    string
	spec      serve.JobSpec
	submitted time.Time
	finished  time.Time
	state     serve.State
	evictions int
}

// Runner executes a scenario against a server's base URL. The server
// may be drained and restarted (on a different address) between
// SubmitAll and AwaitCompletion — that is the point.
type Runner struct {
	sc     Scenario
	client *http.Client
	logf   func(string, ...any)

	mu      sync.Mutex
	records map[string]*jobRecord //dbtf:guardedby mu
	shed    map[string]int        //dbtf:guardedby mu
	tensors map[string]*tensor.Tensor
	start   time.Time
}

// New builds a runner for the scenario.
func New(sc Scenario, logf func(string, ...any)) *Runner {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Runner{
		sc:      sc.withDefaults(),
		client:  &http.Client{Timeout: 30 * time.Second},
		logf:    logf,
		records: map[string]*jobRecord{},
		shed:    map[string]int{},
		tensors: map[string]*tensor.Tensor{},
	}
}

// tensorID returns the workload's tensor names: a few small planted
// tensors plus one giant.
func (r *Runner) buildTensors() {
	rng := rand.New(rand.NewSource(r.sc.Seed))
	for i := 0; i < 3; i++ {
		x, _, _, _ := gen.FromFactors(rng, 12, 10, 8, 3, 0.3)
		r.tensors[fmt.Sprintf("small%d", i)] = x
	}
	giant, _, _, _ := gen.FromFactors(rng, 40, 36, 30, 6, 0.2)
	r.tensors["giant"] = giant
}

// UploadTensors pushes the workload tensors to the server.
func (r *Runner) UploadTensors(baseURL string) error {
	if len(r.tensors) == 0 {
		r.buildTensors()
	}
	for id, x := range r.tensors {
		var body bytes.Buffer
		if err := x.WriteBinary(&body); err != nil {
			return err
		}
		resp, err := r.client.Post(baseURL+"/v1/tensors/"+id, "application/octet-stream", &body)
		if err != nil {
			return fmt.Errorf("loadgen: uploading %s: %w", id, err)
		}
		drainClose(resp)
		if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusConflict {
			return fmt.Errorf("loadgen: uploading %s: HTTP %d", id, resp.StatusCode)
		}
	}
	return nil
}

// specFor builds the i-th job's spec deterministically from the seed.
func (r *Runner) specFor(rng *rand.Rand, tenant string, giant bool) serve.JobSpec {
	if giant {
		return serve.JobSpec{
			Tenant: tenant, TensorID: "giant", Rank: 6,
			MaxIter: 10, MinIter: 10, Seed: rng.Int63n(1 << 30),
		}
	}
	spec := serve.JobSpec{
		Tenant:   tenant,
		TensorID: fmt.Sprintf("small%d", rng.Intn(3)),
		Rank:     3,
		MaxIter:  4 + rng.Intn(4),
		MinIter:  2,
		Seed:     rng.Int63n(1 << 30),
		Priority: rng.Intn(5),
	}
	// A third of the small jobs exercise the deterministic topfiber init,
	// so eviction/resume and the local rerun verify both init paths. The
	// draw stays on the same rng stream so the schedule is reproducible.
	if rng.Intn(3) == 0 {
		spec.Init = "topfiber"
	}
	return spec
}

// SubmitAll runs the open-loop arrival phase: each tenant submits its
// share on a seeded schedule without waiting for completions, the
// over-quota tenant (if any) hammers the rate limit, and the chaos
// goroutine force-evicts random running jobs. It returns when every
// arrival has been attempted.
func (r *Runner) SubmitAll(ctx context.Context, baseURL string) error {
	if len(r.tensors) == 0 {
		return fmt.Errorf("loadgen: UploadTensors first")
	}
	r.start = time.Now()
	stopChaos := make(chan struct{})
	var chaosWG sync.WaitGroup
	if r.sc.EvictInterval > 0 {
		chaosWG.Add(1)
		go func() {
			defer chaosWG.Done()
			r.chaos(ctx, baseURL, stopChaos)
		}()
	}

	var wg sync.WaitGroup
	errc := make(chan error, r.sc.Tenants+1)
	perTenant := r.sc.SmallJobs / r.sc.Tenants
	for ti := 0; ti < r.sc.Tenants; ti++ {
		tenant := fmt.Sprintf("tenant%d", ti)
		n := perTenant
		if ti == 0 {
			n += r.sc.SmallJobs % r.sc.Tenants
		}
		giants := 0
		if r.sc.Tenants > 0 {
			giants = r.sc.GiantJobs / r.sc.Tenants
			if ti < r.sc.GiantJobs%r.sc.Tenants {
				giants++
			}
		}
		wg.Add(1)
		go func(ti int, tenant string, n, giants int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(r.sc.Seed + int64(ti)*7919))
			for i := 0; i < n+giants; i++ {
				if ctx.Err() != nil {
					return
				}
				spec := r.specFor(rng, tenant, i >= n)
				if err := r.submit(baseURL, spec); err != nil {
					errc <- err
					return
				}
				gap := time.Duration(rng.ExpFloat64() * float64(r.sc.MeanArrival))
				select {
				case <-time.After(gap):
				case <-ctx.Done():
					return
				}
			}
		}(ti, tenant, n, giants)
	}
	if r.sc.OverQuota {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(r.sc.Seed + 104729))
			// Submit a burst far above any sane rate with no pacing; most
			// of these must shed.
			for i := 0; i < 3*r.sc.SmallJobs/2+10; i++ {
				if ctx.Err() != nil {
					return
				}
				if err := r.submit(baseURL, r.specFor(rng, "hog", false)); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stopChaos)
	chaosWG.Wait()
	select {
	case err := <-errc:
		return err
	default:
		return nil
	}
}

// submit posts one spec and records the outcome. Admission sheds
// (429/503) are expected outcomes, not errors.
func (r *Runner) submit(baseURL string, spec serve.JobSpec) error {
	body, err := json.Marshal(&spec)
	if err != nil {
		return err
	}
	resp, err := r.client.Post(baseURL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("loadgen: submit: %w", err)
	}
	defer drainClose(resp)
	r.mu.Lock()
	defer r.mu.Unlock()
	switch resp.StatusCode {
	case http.StatusAccepted:
		var view struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&view); err != nil {
			return fmt.Errorf("loadgen: decoding submit response: %w", err)
		}
		r.records[view.ID] = &jobRecord{
			id: view.ID, tenant: spec.Tenant, spec: spec, submitted: time.Now(),
		}
		return nil
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		r.shed[spec.Tenant]++
		if resp.Header.Get("Retry-After") == "" {
			return fmt.Errorf("loadgen: %d response without Retry-After", resp.StatusCode)
		}
		return nil
	default:
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return fmt.Errorf("loadgen: submit: HTTP %d: %s", resp.StatusCode, data)
	}
}

// chaos periodically evicts one random running job.
func (r *Runner) chaos(ctx context.Context, baseURL string, stop <-chan struct{}) {
	rng := rand.New(rand.NewSource(r.sc.Seed ^ 0x5ca1ab1e))
	for {
		select {
		case <-stop:
			return
		case <-ctx.Done():
			return
		case <-time.After(r.sc.EvictInterval):
		}
		ids := r.jobIDs()
		if len(ids) == 0 {
			continue
		}
		id := ids[rng.Intn(len(ids))]
		resp, err := r.client.Post(baseURL+"/v1/jobs/"+id+"/evict", "", nil)
		if err != nil {
			continue // server may be restarting; chaos is best-effort
		}
		drainClose(resp)
	}
}

func (r *Runner) jobIDs() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := make([]string, 0, len(r.records))
	for id := range r.records {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// AwaitCompletion polls until every admitted job is terminal. baseURL
// may differ from the submission URL when the server was drained and
// restarted in between.
func (r *Runner) AwaitCompletion(ctx context.Context, baseURL string) error {
	for {
		pending := 0
		for _, id := range r.jobIDs() {
			r.mu.Lock()
			rec := r.records[id]
			done := rec.state.Terminal()
			r.mu.Unlock()
			if done {
				continue
			}
			view, err := r.fetchJob(baseURL, id)
			if err != nil {
				return err
			}
			r.mu.Lock()
			rec.state = view.State
			rec.evictions = view.Evictions
			if view.State.Terminal() {
				rec.finished = time.Now()
			} else {
				pending++
			}
			r.mu.Unlock()
		}
		if pending == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("loadgen: %d jobs still pending: %w", pending, ctx.Err())
		case <-time.After(20 * time.Millisecond):
		}
	}
}

type jobView struct {
	ID        string       `json:"id"`
	State     serve.State  `json:"state"`
	Evictions int          `json:"evictions"`
	Result    *serveResult `json:"result"`
}

type serveResult struct {
	Error      int64  `json:"error"`
	FactorHash string `json:"factor_hash"`
}

func (r *Runner) fetchJob(baseURL, id string) (*jobView, error) {
	resp, err := r.client.Get(baseURL + "/v1/jobs/" + id)
	if err != nil {
		return nil, fmt.Errorf("loadgen: fetching job %s: %w", id, err)
	}
	defer drainClose(resp)
	if resp.StatusCode == http.StatusNotFound {
		return nil, fmt.Errorf("loadgen: job %s LOST: server no longer knows it", id)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("loadgen: fetching job %s: HTTP %d", id, resp.StatusCode)
	}
	var v jobView
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&v); err != nil {
		return nil, err
	}
	return &v, nil
}

// Verify re-runs a sample of completed jobs locally — uninterrupted, on
// an identically-sized cluster — and compares factor hashes. Jobs that
// were evicted or restarted are sampled first: they are exactly the
// ones whose resume path must be bit-identical.
func (r *Runner) Verify(baseURL string) (verified, mismatches int, err error) {
	ids := r.jobIDs()
	r.mu.Lock()
	sort.SliceStable(ids, func(a, b int) bool {
		return r.records[ids[a]].evictions > r.records[ids[b]].evictions
	})
	r.mu.Unlock()
	for _, id := range ids {
		if verified >= r.sc.VerifySample {
			break
		}
		r.mu.Lock()
		rec := r.records[id]
		r.mu.Unlock()
		if rec.state != serve.StateDone {
			continue
		}
		view, ferr := r.fetchJob(baseURL, id)
		if ferr != nil {
			return verified, mismatches, ferr
		}
		if view.Result == nil {
			return verified, mismatches, fmt.Errorf("loadgen: done job %s has no result", id)
		}
		x := r.tensors[rec.spec.TensorID]
		cl := cluster.New(cluster.Config{Machines: r.sc.Machines})
		res, derr := core.Decompose(context.Background(), x, cl, rec.spec.Options())
		if derr != nil {
			return verified, mismatches, fmt.Errorf("loadgen: local rerun of %s: %w", id, derr)
		}
		want := serve.FactorHash(res.A, res.B, res.C)
		if want != view.Result.FactorHash {
			mismatches++
			r.logf("loadgen: job %s (evictions %d): service hash %s != local uninterrupted %s",
				id, rec.evictions, view.Result.FactorHash, want)
		}
		verified++
	}
	return verified, mismatches, nil
}

// Report assembles the final numbers. Call after AwaitCompletion (and
// optionally Verify, passing its results).
func (r *Runner) Report(verified, mismatches int) *Report {
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := &Report{
		Tenants:          map[string]*TenantStats{},
		Verified:         verified,
		VerifyMismatches: mismatches,
		Elapsed:          time.Since(r.start),
	}
	tenant := func(name string) *TenantStats {
		ts, ok := rep.Tenants[name]
		if !ok {
			ts = &TenantStats{}
			rep.Tenants[name] = ts
		}
		return ts
	}
	var latencies []time.Duration
	completedPerTenant := map[string]int{}
	for _, rec := range r.records {
		ts := tenant(rec.tenant)
		ts.Submitted++
		ts.Admitted++
		ts.Evictions += rec.evictions
		rep.Evictions += rec.evictions
		switch rec.state {
		case serve.StateDone:
			ts.Completed++
			completedPerTenant[rec.tenant]++
			latencies = append(latencies, rec.finished.Sub(rec.submitted))
		case serve.StateFailed:
			rep.Failed++
		case serve.StateCancelled:
		default:
			rep.Lost++
		}
	}
	for name, n := range r.shed {
		ts := tenant(name)
		ts.Submitted += n
		ts.Shed += n
	}
	if len(latencies) > 0 {
		sort.Slice(latencies, func(a, b int) bool { return latencies[a] < latencies[b] })
		rep.LatencyP50 = latencies[len(latencies)/2]
		rep.LatencyP95 = latencies[len(latencies)*95/100]
		rep.LatencyMax = latencies[len(latencies)-1]
		rep.Throughput = float64(len(latencies)) / rep.Elapsed.Seconds()
	}
	// Jain's index over the well-behaved tenants (the hog is excluded:
	// its sheds are the rate limiter working, not unfairness).
	var xs []float64
	for ti := 0; ti < r.sc.Tenants; ti++ {
		xs = append(xs, float64(completedPerTenant[fmt.Sprintf("tenant%d", ti)]))
	}
	rep.Jain = jain(xs)
	return rep
}

// jain computes Jain's fairness index (Σx)² / (n·Σx²).
func jain(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// drainClose discards the rest of a response body and closes it so the
// client connection can be reused.
func drainClose(resp *http.Response) {
	//dbtf:allow-unchecked best-effort body drain for connection reuse
	io.CopyN(io.Discard, resp.Body, 1<<20)
	//dbtf:allow-unchecked closing a fully-read response body
	resp.Body.Close()
}

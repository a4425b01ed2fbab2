package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"dbtf/internal/cluster"
	"dbtf/internal/core"
	"dbtf/internal/gen"
	"dbtf/internal/tensor"
	"dbtf/internal/trace"
)

// A served job is a function of its spec and its tensor: no slice, eviction,
// drain, straggler cancel, crash restart or other job on its tensor's set may
// move a bit of it. A service scenario is one seeded life of a job server over
// one data directory, lived through the HTTP API; checkServeScenario holds
// every job it admits to a direct core.Decompose of its spec, or to a cancel
// of it that the server accepted.

// planted is a scenario tensor: gen.FromFactors at factor density 0.3.
type planted struct {
	seed int64
	dims [3]int
	rank int
}

func (p planted) tensor() *tensor.Tensor {
	x, _, _, _ := gen.FromFactors(rand.New(rand.NewSource(p.seed)), p.dims[0], p.dims[1], p.dims[2], p.rank, 0.3)
	return x
}

type stepKind int

const (
	submitNext stepKind = iota // submit the next job
	evictJob                   // wait for the job to run, evict it, wait for the eviction or its end
	cancelJob                  // cancel the job unless it has ended
	waitJob                    // until the job is terminal
	restart                    // drain, rewrite the crash set's queued records as running, start the next process
)

// step is one action of a script on job (by submission order; a job not yet
// submitted, or refused, is left alone); crash has bit j for job j.
type step struct {
	kind  stepKind
	job   int
	crash uint
}

// serveScenario is a server's life on machines machines: tensors x0, x1, ...,
// the jobs in submission order, each process's configuration (one more per
// restart; the last is reused), every process's checkpoint floor and the
// script.
type serveScenario struct {
	machines int
	tensors  []planted
	jobs     []JobSpec
	servers  []Config
	floor    time.Duration
	script   []step
}

// drawServeScenario makes every bounded random choice of a service scenario
// from rng, as drawScenario does for one run in internal/core.
func drawServeScenario(rng *rand.Rand) serveScenario {
	sc := serveScenario{machines: 1 + rng.Intn(4), servers: []Config{drawServer(rng)}}
	for n := 1 + rng.Intn(3); len(sc.tensors) < n; {
		sc.tensors = append(sc.tensors, planted{rng.Int63(), [3]int{6 + rng.Intn(9), 6 + rng.Intn(9), 6 + rng.Intn(9)}, 2 + rng.Intn(3)})
	}
	for n := 1 + rng.Intn(10); len(sc.jobs) < n; {
		j := JobSpec{Tenant: fmt.Sprintf("t%d", rng.Intn(3)), TensorID: fmt.Sprintf("x%d", rng.Intn(len(sc.tensors))),
			Rank: 1 + rng.Intn(5), MaxIter: 1 + rng.Intn(8), Init: [...]string{"fiber", "random", "topfiber"}[rng.Intn(3)],
			InitialSets: 1 + rng.Intn(2), Seed: rng.Int63(), Priority: rng.Intn(5) - 2}
		j.MinIter = []int{1, j.MaxIter}[rng.Intn(2)]
		if j.Init == "topfiber" {
			j.InitialSets = 1
		}
		sc.jobs = append(sc.jobs, j)
	}
	for n, submitted := 1+rng.Intn(16), 0; len(sc.script) < n; {
		st := step{kind: [...]stepKind{submitNext, submitNext, submitNext, evictJob, evictJob, cancelJob, waitJob, restart}[rng.Intn(8)],
			job: rng.Intn(max(submitted, 1))}
		switch st.kind {
		case submitNext:
			submitted = min(submitted+1, len(sc.jobs))
		case restart:
			if rng.Intn(3) == 0 {
				st.crash = uint(rng.Intn(1 << len(sc.jobs)))
			}
			sc.servers = append(sc.servers, drawServer(rng))
		}
		sc.script = append(sc.script, st)
	}
	// At 0 a job checkpoints at every boundary it keeps its slot at, so a
	// crash, a drain or an eviction resumes it from a checkpoint made
	// mid-slice; at the default, from the last one it yielded at, or none.
	sc.floor = []time.Duration{0, checkpointFloor}[rng.Intn(2)]
	return sc
}

// drawServer draws one process's configuration; a drain that gives up after
// 1 ms cancels its stragglers mid-stage, and a tight admission sheds.
func drawServer(rng *rand.Rand) Config {
	cfg := Config{MaxRunning: 1 + rng.Intn(3), GateSlots: 1 + rng.Intn(3),
		SliceIterations: []int{-1, 1, 2, 3}[rng.Intn(4)], DrainTimeout: 20 * time.Second}
	if rng.Intn(4) == 0 {
		cfg.DrainTimeout = time.Millisecond
	}
	if rng.Intn(4) == 0 {
		cfg.Admission = AdmissionConfig{MaxQueued: 2 + rng.Intn(3), MaxQueuedPerTenant: 1 + rng.Intn(2),
			TenantRate: 0.01, TenantBurst: float64(2 + rng.Intn(3))}
	}
	return cfg
}

// process is one server process, its API, the holds on the jobs it
// admitted, and what it left when drained: GET /v1/stats, GET /v1/jobs by
// id, its trace files' lengths, and the files in each job's checkpoint
// directory, where it has one.
type process struct {
	s           *Server
	h           http.Handler
	shed        map[string]int64 // refused submits by reason
	holds       map[string]*hold
	stats       Stats
	end         map[string]JobView
	traceLen    map[string]int64
	checkpoints map[string]int
}

// hold stops a scenario job at the run_begin of a slice, inside the job's
// own trace, until the harness frees it. A job that a submit or an eviction
// set going waits there until a step needs it to move, so a step that
// targets it, or a submit that queues a job beside it, acts before the job
// can have moved on, however the harness's goroutine is scheduled. A submit
// frees no job; an evict or a cancel frees all but its target, a wait frees
// every job, and a restart frees every job once its drain has marked the
// running ones to yield.
type hold struct {
	mu      sync.Mutex
	armed   bool          // the next run_begin waits
	waiting chan struct{} // non-nil while a run_begin waits on it
}

func (h *hold) Write(ev *trace.Event) error {
	if ev.Type != trace.RunBegin {
		return nil
	}
	h.mu.Lock()
	if !h.armed {
		h.mu.Unlock()
		return nil
	}
	h.armed = false
	wait := make(chan struct{})
	h.waiting = wait
	h.mu.Unlock()
	<-wait
	return nil
}

func (*hold) Close() error { return nil }

// waits reports whether a slice waits on h; settled, whether none is on
// its way to, so the job's state will not change under the hold. A job
// without a hold (nil) is settled and never waits.
func (h *hold) waits() (waits, settled bool) {
	if h == nil {
		return false, true
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.waiting != nil, h.waiting != nil || !h.armed
}

// free lets a waiting slice go; rearm makes the job's next slice wait.
func (h *hold) free(rearm bool) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.armed = rearm
	if h.waiting != nil {
		close(h.waiting)
		h.waiting = nil
	}
}

// holdNext installs, for the job the next admitted submit will be, the
// trace traceFor would make — the JSONL stream and the progress fold — with
// an armed hold beside them. A refused submit leaves it for the next one.
func (p *process) holdNext(t *testing.T) {
	t.Helper()
	p.s.mu.Lock()
	defer p.s.mu.Unlock()
	id := fmt.Sprintf("j%08d", p.s.seq)
	if h := p.holds[id]; h != nil {
		h.free(true)
		return
	}
	if err := os.MkdirAll(filepath.Join(p.s.cfg.DataDir, "traces"), 0o755); err != nil {
		t.Fatal(err)
	}
	sink, err := newJSONLFileSink(tracePath(p.s.cfg.DataDir, id))
	if err != nil {
		t.Fatal(err)
	}
	h, prog := &hold{armed: true}, &progressSink{}
	p.s.traces[id] = &jobTrace{tracer: trace.New(trace.NewTee(sink, prog, h)), progress: prog}
	p.holds[id] = h
}

// freeAll frees every held job but except.
func (p *process) freeAll(except string) {
	for id, h := range p.holds {
		if id != except {
			h.free(false)
		}
	}
}

// call sends one request to h.
func call(h http.Handler, method, path string, body io.Reader) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, body))
	return rec
}

// decode is the JSON body of a response that must have status want.
func decode[T any](t *testing.T, rec *httptest.ResponseRecorder, want int, what string) T {
	t.Helper()
	var v T
	if rec.Code != want {
		t.Fatalf("%s: %d %s", what, rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	return v
}

// submit posts spec to POST /v1/jobs and returns the admitted job's id, or
// "" and the reason of a refusal: a 429, or a 503 while the server drains,
// with a Retry-After of at least a second. The process tallies its refusals
// by reason.
func (p *process) submit(t *testing.T, spec *JobSpec) (id, reason string) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	rec := call(p.h, http.MethodPost, "/v1/jobs", bytes.NewReader(body))
	if rec.Code == http.StatusAccepted {
		return decode[JobView](t, rec, http.StatusAccepted, "submit").ID, ""
	}
	var refusal apiError
	retry, err := strconv.Atoi(rec.Header().Get("Retry-After"))
	if err == nil {
		err = json.Unmarshal(rec.Body.Bytes(), &refusal)
	}
	want := http.StatusTooManyRequests
	if refusal.Reason == "draining" {
		want = http.StatusServiceUnavailable
	}
	if err != nil || rec.Code != want || refusal.Reason == "" || retry < 1 {
		t.Fatalf("submit refused with %d, Retry-After %q: %s", rec.Code, rec.Header().Get("Retry-After"), rec.Body)
	}
	p.shed[refusal.Reason]++
	return "", refusal.Reason
}

// act sends an evict or a cancel and reports whether the server accepted it
// (202); it may refuse only with 404 or 409.
func (p *process) act(t *testing.T, method, path string) bool {
	t.Helper()
	switch rec := call(p.h, method, path, nil); rec.Code {
	case http.StatusAccepted:
		return true
	case http.StatusNotFound, http.StatusConflict:
		return false
	default:
		t.Fatalf("%s %s: %d %s", method, path, rec.Code, rec.Body)
		return false
	}
}

// serveRun is what a scenario's life did: by job, its id ("" if never
// admitted); by id, the evictions seen to land, the records rewritten as
// running, whether the server accepted a cancel of it, and the runs its
// trace tells; and the steps that did not land.
type serveRun struct {
	dir           string
	procs         []*process
	ids           []string
	landed, flips map[string]int
	cancelled     map[string]bool
	runs          map[string][]setUpRun
	missed        []missedStep
}

// missedStep is a step of the script that did not land on job id because
// the job had already ended, in state; a crash step misses once per job of
// its set.
type missedStep struct {
	step  int
	id    string
	state State
}

// setUpRun is one run of a job on a tensor in a process: its set-up events,
// whether it reached an iteration, and the wall clock at its run_begin and at
// its last shuffle.
type setUpRun struct {
	at                   string // the process and the tensor
	partitions, shuffles int
	iterated             bool
	begin, built         int64
}

func (r *serveRun) view(j int) JobView { return r.procs[len(r.procs)-1].end[r.ids[j]] }

// run lives the scenario through each process's Handler: the first process
// stores the tensors through POST /v1/tensors/{id}, the script plays, the
// jobs left are submitted, every admitted job ends, and the last process
// drains. A drained process must run no job and refuse a submit as draining.
// Only the waits poll the Server directly.
func (sc serveScenario) run(t *testing.T) *serveRun {
	t.Helper()
	r := &serveRun{dir: t.TempDir(), ids: make([]string, len(sc.jobs)), landed: map[string]int{},
		flips: map[string]int{}, cancelled: map[string]bool{}, runs: map[string][]setUpRun{}}
	var p *process
	start := func() {
		cfg := sc.servers[min(len(r.procs), len(sc.servers)-1)]
		cfg.DataDir, cfg.Machines = r.dir, sc.machines
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("starting process %d: %v", len(r.procs), err)
		}
		t.Cleanup(s.Drain) // a failed check leaves nothing running
		s.mu.Lock()
		s.floor = sc.floor
		s.mu.Unlock()
		proc := &process{s: s, h: s.Handler(), shed: map[string]int64{}, holds: map[string]*hold{}}
		t.Cleanup(func() { proc.freeAll("") }) // before the drain, which waits for held jobs
		p = proc
		r.procs = append(r.procs, p)
	}
	drain := func() {
		// The held jobs go only once the drain has marked them to yield, so
		// none that the script left running can end before it.
		drained := make(chan struct{})
		go func() { p.s.Drain(); close(drained) }()
		for !p.s.Draining() {
			time.Sleep(time.Millisecond)
		}
		p.freeAll("")
		<-drained
		if id, reason := p.submit(t, &sc.jobs[0]); reason != "draining" {
			t.Fatalf("a drained server answered a submit with job %q, reason %q", id, reason)
		}
		p.stats = decode[Stats](t, call(p.h, http.MethodGet, "/v1/stats", nil), http.StatusOK, "stats")
		p.end, p.traceLen, p.checkpoints = map[string]JobView{}, map[string]int64{}, map[string]int{}
		list := decode[struct{ Jobs []JobView }](t, call(p.h, http.MethodGet, "/v1/jobs", nil), http.StatusOK, "the job list")
		for _, v := range list.Jobs {
			if v.State == StateRunning {
				t.Fatalf("job %s is running after the drain", v.ID)
			}
			p.end[v.ID] = v
			if fi, err := os.Stat(tracePath(r.dir, v.ID)); err == nil {
				p.traceLen[v.ID] = fi.Size()
			}
			if files, err := os.ReadDir(p.s.checkpointDir(v.ID)); err == nil {
				p.checkpoints[v.ID] = len(files)
			}
		}
	}
	next := 0
	submit := func() {
		r.ids[next], _ = p.submit(t, &sc.jobs[next])
		next++
	}
	start()
	for i, x := range sc.tensors {
		var upload bytes.Buffer
		if err := x.tensor().WriteBinary(&upload); err != nil {
			t.Fatal(err)
		}
		if rec := call(p.h, http.MethodPost, fmt.Sprintf("/v1/tensors/x%d", i), &upload); rec.Code != http.StatusCreated {
			t.Fatalf("uploading x%d: %d %s", i, rec.Code, rec.Body)
		}
	}
	for i, st := range sc.script {
		id := ""
		if st.job < next {
			id = r.ids[st.job]
		}
		switch st.kind {
		case evictJob, cancelJob:
			p.freeAll(id)
		case waitJob:
			p.freeAll("")
		}
		switch {
		case st.kind == submitNext && next < len(sc.jobs):
			p.holdNext(t)
			submit()
		case st.kind == restart:
			drain()
			for j, id := range r.ids {
				if id == "" || st.crash&(1<<j) == 0 {
					continue
				}
				crashed := p.end[id].Job
				if crashed.State != StateQueued {
					// A crash after the terminal record, before its
					// checkpoints were removed: the next process removes
					// what it left.
					if err := os.MkdirAll(p.s.checkpointDir(id), 0o755); err != nil {
						t.Fatal(err)
					}
					r.missed = append(r.missed, missedStep{i, id, crashed.State})
					continue
				}
				crashed.State = StateRunning
				if err := persistJob(r.dir, &crashed); err != nil {
					t.Fatal(err)
				}
				r.flips[id]++
			}
			start()
		case id == "":
		case st.kind == evictJob:
			// The server evicts only a running job, and a job between two
			// slices is queued: the step waits for it to run, and only the
			// job's end stops it. A held job is evicted at its slice's start,
			// so the eviction lands at the slice's first iteration boundary,
			// and the slice it resumes in is held in turn.
			h := p.holds[id]
			for {
				v := waitState(t, p.s, id, func(w JobView) bool {
					_, settled := h.waits()
					return w.State == StateRunning && settled || w.State.Terminal()
				}, "the job to run")
				if v.State.Terminal() {
					r.missed = append(r.missed, missedStep{i, id, v.State})
					break
				}
				if !p.act(t, http.MethodPost, "/v1/jobs/"+id+"/evict") {
					continue // it stopped running between the look and the request
				}
				if waits, _ := h.waits(); waits {
					h.free(true)
				}
				if w := waitState(t, p.s, id, func(w JobView) bool { return w.Evictions > v.Evictions || w.State.Terminal() }, "the eviction"); w.Evictions > v.Evictions {
					r.landed[id]++
				} else {
					r.missed = append(r.missed, missedStep{i, id, w.State})
				}
				break
			}
		case st.kind == cancelJob:
			if p.act(t, http.MethodDelete, "/v1/jobs/"+id) {
				r.cancelled[id] = true
			} else {
				r.missed = append(r.missed, missedStep{i, id, waitTerminal(t, p.s, id).State})
			}
			p.holds[id].free(false)
		case st.kind == waitJob:
			waitTerminal(t, p.s, id)
		}
	}
	p.freeAll("")
	for next < len(sc.jobs) {
		submit()
	}
	for _, id := range r.ids {
		if id != "" {
			waitTerminal(t, p.s, id)
		}
	}
	drain()
	return r
}

// checkServeScenario lives the scenario and holds it to the service contract,
// as the API reports it: every admitted job is in the last server's job list
// and has its record on disk, in one state, and none failed; one ends
// cancelled only if the server accepted a cancel of it; a done job's result
// has a direct core.Decompose's factors, error, iterations and convergence,
// and its trace that run's error trajectory, on a cluster of the server's
// size, and one finished by the last process reports its error as its
// progress; Restarts counts the records rewritten as running and Evictions
// covers the evictions seen to land; each process's stats count its refused
// submits reason by reason, and the last ends with nothing queued, running or
// charged; no process leaves a checkpoint directory behind a job that ended,
// however it ended; each process's part of a trace validates and sets each
// tensor up once (checkSetUp).
func checkServeScenario(t *testing.T, sc serveScenario) *serveRun {
	t.Helper()
	r := sc.run(t)
	last := r.procs[len(r.procs)-1]
	if st := last.stats; st.Queued != 0 || st.Running != 0 || st.MemoryBytes != 0 {
		t.Errorf("the last server ended with %d jobs queued, %d running and %d bytes charged", st.Queued, st.Running, st.MemoryBytes)
	}
	for k, p := range r.procs {
		if !maps.Equal(p.stats.Shed, p.shed) {
			t.Errorf("process %d counted %v shed; the script was refused %v", k, p.stats.Shed, p.shed)
		}
		for id, files := range p.checkpoints {
			if v := p.end[id]; v.State.Terminal() {
				t.Errorf("process %d: job %s ended %s and left a checkpoint directory of %d files", k, id, v.State, files)
			}
		}
	}
	records, err := loadJobs(r.dir)
	if err != nil {
		t.Fatal(err)
	}
	onDisk := map[string]State{}
	for _, j := range records {
		onDisk[j.ID] = j.State
	}
	for _, id := range r.ids {
		v, ok := last.end[id]
		switch {
		case id == "":
			continue
		case !ok || onDisk[id] != v.State:
			t.Errorf("job %s: the server has it %q, its record %q", id, v.State, onDisk[id])
		case v.State == StateFailed || !v.State.Terminal():
			t.Errorf("job %s ended %s (%s)", id, v.State, v.Error)
		case v.State == StateCancelled && !r.cancelled[id]:
			t.Errorf("job %s ended cancelled, but the server accepted no cancel of it", id)
		case v.Restarts != r.flips[id] || v.Evictions < r.landed[id]:
			t.Errorf("job %s: %d restarts and %d evictions; its record was rewritten %d times and %d evictions landed", id, v.Restarts, v.Evictions, r.flips[id], r.landed[id])
		}
		errs := r.readTrace(t, last.h, v)
		if v.State != StateDone {
			continue
		}
		got := decode[JobResult](t, call(last.h, http.MethodGet, "/v1/jobs/"+id+"/result", nil), http.StatusOK, "job "+id+"'s result")
		x := sc.tensors[v.Spec.TensorID[1]-'0'].tensor() // x0 … x9
		want, err := core.Decompose(context.Background(), x, cluster.New(cluster.Config{Machines: sc.machines}), v.Spec.Options())
		if err != nil {
			t.Fatal(err)
		}
		if hash := FactorHash(want.A, want.B, want.C); got.FactorHash != hash || got.Error != want.Error || got.Iterations != want.Iterations || got.Converged != want.Converged {
			t.Errorf("job %s: factor hash %s, error %d after %d iterations (converged %v); a direct Decompose gives %s, %d after %d (%v)",
				id, got.FactorHash, got.Error, got.Iterations, got.Converged, hash, want.Error, want.Iterations, want.Converged)
		}
		if !slices.Equal(errs, want.IterationErrors) {
			t.Errorf("job %s: iteration errors %v on its trace, a direct Decompose gives %v", id, errs, want.IterationErrors)
		}
		finishedLast := len(r.procs) == 1 || !r.procs[len(r.procs)-2].end[id].State.Terminal()
		if p := v.Progress; finishedLast && (p == nil || p.Iterations > 0 && p.LastError != got.Error) {
			t.Errorf("job %s ended at error %d, its progress reads %+v", id, got.Error, p)
		}
	}
	for _, m := range r.missed {
		if v := last.end[m.id]; !m.state.Terminal() || v.State != m.state {
			t.Errorf("step %d missed job %s as %s; the job ended %s", m.step, m.id, m.state, v.State)
		}
	}
	r.checkSetUp(t)
	return r
}

// readTrace fetches the job's trace through GET /v1/jobs/{id}/trace and
// validates each process's part on its own — a restarted server appends a
// fresh stream — recording the job's runs. It returns the iteration_end
// errors of the iterations the job's result comes from, in order.
func (r *serveRun) readTrace(t *testing.T, h http.Handler, v JobView) []int64 {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+v.ID+"/trace", nil))
	body := rec.Body.Bytes()
	if rec.Code == http.StatusNotFound { // it never ran
		body = nil
	}
	var errs []int64
	from := int64(0)
	for k, p := range r.procs {
		part := body[from:p.traceLen[v.ID]]
		if from = p.traceLen[v.ID]; len(part) == 0 {
			continue
		}
		if _, err := trace.ValidateJSONL(bytes.NewReader(part)); err != nil {
			t.Errorf("job %s: process %d's trace: %v", v.ID, k, err)
		}
		events, err := trace.DecodeJSONL(bytes.NewReader(part))
		if err != nil {
			t.Fatal(err)
		}
		var run *setUpRun
		for _, ev := range events {
			if ev.Type == trace.IterationEnd && ev.Error != nil {
				errs = append(errs, *ev.Error)
			}
			switch {
			case ev.Type == trace.RunBegin:
				// A run continues from its checkpoint's iteration, 0 if it
				// found none: the iterations after it that an earlier run
				// ended before a cancel or crash are computed again.
				if ev.Iteration > len(errs) {
					t.Errorf("job %s: a run resumed from iteration %d after %d on its trace", v.ID, ev.Iteration, len(errs))
				} else {
					errs = errs[:ev.Iteration]
				}
				r.runs[v.ID] = append(r.runs[v.ID], setUpRun{at: fmt.Sprintf("process %d, %s", k, v.Spec.TensorID), begin: ev.WallNanos})
				run = &r.runs[v.ID][len(r.runs[v.ID])-1]
			case run == nil:
			case ev.Type == trace.StageBegin && ev.Name == "partition":
				run.partitions++
			case ev.Type == trace.Shuffle:
				run.shuffles, run.built = run.shuffles+1, ev.WallNanos
			case ev.Type == trace.IterationBegin:
				run.iterated = true
			}
		}
	}
	if int(from) != len(body) {
		t.Errorf("job %s: GET %d gave %d trace bytes, the drains left %d", v.ID, rec.Code, len(body), from)
	}
	return errs
}

// checkSetUp holds each process to one build of each tensor's set, by one
// run — one partition stage, three shuffles — and to one build if
// any run on the tensor reached an iteration; no run that began after the
// build sets the tensor up again. (A build cancelled in its partition stage
// holds no shuffle and is not kept.)
func (r *serveRun) checkSetUp(t *testing.T) {
	t.Helper()
	built := map[string]int64{}
	for _, runs := range r.runs {
		for _, run := range runs {
			if _, twice := built[run.at]; run.shuffles > 0 {
				if twice || run.partitions != 1 || run.shuffles != 3 {
					t.Errorf("%s: a build (again: %v) with %d partition stages and %d shuffles", run.at, twice, run.partitions, run.shuffles)
				}
				built[run.at] = run.built
			}
		}
	}
	for id, runs := range r.runs {
		for _, run := range runs {
			b, ok := built[run.at]
			if !ok && run.iterated || ok && run.begin > b && run.partitions+run.shuffles > 0 {
				t.Errorf("job %s, %s: a run iterated with no build (%v) or set the tensor up after it", id, run.at, !ok)
			}
		}
	}
}

// FuzzServeScenario checks the service scenario a seed draws. Plain go test
// runs the seeds added here; go test -fuzz='^FuzzServeScenario$' draws more.
func FuzzServeScenario(f *testing.F) {
	for seed := int64(1); seed <= 60; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkServeScenario(t, drawServeScenario(rand.New(rand.NewSource(seed))))
	})
}

// pinnedScenario stores testTensor(7) as x0 on testServer's configuration —
// two machines, one slot, no timeslice, the default checkpoint floor — and
// sends rank-3 jobs of the given iteration counts (MinIter = MaxIter), seeds
// 42, 43, ...
func pinnedScenario(iters []int, script ...step) serveScenario {
	sc := serveScenario{machines: 2, tensors: []planted{testPlanted(7)}, script: script, floor: checkpointFloor,
		servers: []Config{{MaxRunning: 1, GateSlots: 2, SliceIterations: -1, DrainTimeout: 20 * time.Second}}}
	for i, n := range iters {
		sc.jobs = append(sc.jobs, JobSpec{Tenant: "acme", TensorID: "x0", Rank: 3, MaxIter: n, MinIter: n, Seed: 42 + int64(i)})
	}
	return sc
}

var sub, reboot = step{kind: submitNext}, step{kind: restart}

func evict(j int) step { return step{kind: evictJob, job: j} }
func wait(j int) step  { return step{kind: waitJob, job: j} }

// TestServeScenarioPinned: a drain that gives up after 1 ms cancels three
// running jobs mid-stage, and each resumes bit-identically.
func TestServeScenarioPinned(t *testing.T) {
	sc := pinnedScenario([]int{8, 8, 8}, sub, sub, sub, reboot)
	sc.servers[0].MaxRunning, sc.servers[0].DrainTimeout = 3, time.Millisecond
	t.Run("three slots drained at 1 ms", func(t *testing.T) { checkServeScenario(t, sc) })
}

// TestHogTenantIsShed: one tenant submits six jobs against a burst of two
// while two others submit two each. The hog is refused as rate_limited, with
// a 429 and a Retry-After, and every job of the others is done.
func TestHogTenantIsShed(t *testing.T) {
	sc := pinnedScenario([]int{4, 4, 4, 4, 4, 4, 4, 4, 4, 4})
	sc.servers[0].Admission = AdmissionConfig{TenantRate: 0.01, TenantBurst: 2}
	for j := range sc.jobs {
		sc.jobs[j].Tenant = [...]string{"hog", "a", "hog", "b", "hog"}[j%5]
	}
	r := checkServeScenario(t, sc)
	if shed := r.procs[0].shed; shed["rate_limited"] != 4 {
		t.Errorf("the hog's six submits were refused %v, want four rate_limited", shed)
	}
	for j, spec := range sc.jobs {
		if v := r.view(j); spec.Tenant != "hog" && v.State != StateDone {
			t.Errorf("tenant %s's job %d ended %q", spec.Tenant, j, v.State)
		}
	}
}

// The hand-written lifecycle tests the scenario replaced keep their names,
// each one pinned scenario plus the assertion that keeps it from passing
// vacuously.

func TestSubmitRunsToDone(t *testing.T) {
	if p := checkServeScenario(t, pinnedScenario([]int{6}, sub, wait(0))).view(0).Progress; p == nil || p.Iterations == 0 {
		t.Errorf("progress %+v", p)
	}
}

func TestSameSpecReproducesFactorHash(t *testing.T) {
	sc := pinnedScenario([]int{6, 6}, sub, sub)
	sc.jobs[1].Seed = sc.jobs[0].Seed
	if r := checkServeScenario(t, sc); r.view(0).Result.FactorHash != r.view(1).Result.FactorHash {
		t.Error("one spec, two factor hashes")
	}
}

func TestEvictResumesBitIdentical(t *testing.T) {
	if r := checkServeScenario(t, pinnedScenario([]int{8}, sub, evict(0), evict(0))); r.landed[r.ids[0]] != 2 || len(r.missed) != 0 {
		t.Errorf("%d evictions landed and %v steps missed, want 2 and none", r.landed[r.ids[0]], r.missed)
	}
}

func TestTimesliceSharesSlotAcrossJobs(t *testing.T) {
	sc := pinnedScenario([]int{10, 10}, sub, sub)
	sc.servers[0].SliceIterations = 2
	if checkServeScenario(t, sc).view(0).Evictions == 0 {
		t.Error("the first job was never timesliced despite a waiting queue")
	}
}

// TestServedJobCheckpointsWhereItYields counts the checkpoints in served
// jobs' traces. A 6-iteration job that runs alone, within the floor, writes
// none (one per iteration before the floor). Two 10-iteration jobs
// timesliced at every iteration write one per yield. At floor 0 a
// 6-iteration job writes one at every boundary but the last.
func TestServedJobCheckpointsWhereItYields(t *testing.T) {
	t.Run("alone", func(t *testing.T) {
		if n := checkpointsWritten(t, checkServeScenario(t, pinnedScenario([]int{6}, sub, wait(0))), 0); n != 0 {
			t.Errorf("a job that ran alone wrote %d checkpoints, want 0", n)
		}
	})
	t.Run("timesliced", func(t *testing.T) {
		sc := pinnedScenario([]int{10, 10}, sub, sub)
		sc.servers[0].SliceIterations = 1
		r := checkServeScenario(t, sc)
		for j := range sc.jobs {
			if n, yields := checkpointsWritten(t, r, j), r.view(j).Evictions; n != yields {
				t.Errorf("job %d wrote %d checkpoints and yielded %d times", j, n, yields)
			}
		}
		if r.view(0).Evictions == 0 {
			t.Error("the first job was never timesliced despite a waiting queue")
		}
		// The slot a job yields goes to the job that waited.
		if runs := r.runs[r.ids[0]]; len(runs) > 1 && r.runs[r.ids[1]][0].begin > runs[1].begin {
			t.Error("the first job ran its second slice before the second job ran one")
		}
	})
	t.Run("floor 0", func(t *testing.T) {
		sc := pinnedScenario([]int{6}, sub, wait(0))
		sc.floor = 0
		if n := checkpointsWritten(t, checkServeScenario(t, sc), 0); n != 5 {
			t.Errorf("a job at floor 0 wrote %d checkpoints in 6 iterations, want 5", n)
		}
	})
}

// checkpointsWritten counts the checkpoint events in job j's trace.
func checkpointsWritten(t *testing.T, r *serveRun, j int) int {
	t.Helper()
	f, err := os.Open(tracePath(r.dir, r.ids[j]))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := trace.DecodeJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, ev := range events {
		if ev.Type == trace.Checkpoint {
			n++
		}
	}
	return n
}

func TestCancelQueuedJob(t *testing.T) {
	if v := checkServeScenario(t, pinnedScenario([]int{8, 6}, sub, sub, step{kind: cancelJob, job: 1})).view(1); v.State != StateCancelled {
		t.Errorf("the queued job ended %s", v.State)
	}
}

func TestDrainZeroLostJobsAndRestartResumes(t *testing.T) {
	if r := checkServeScenario(t, pinnedScenario([]int{8, 8, 8, 8}, sub, sub, sub, sub, reboot)); r.procs[0].end[r.ids[3]].State != StateQueued {
		t.Errorf("the last job was %s after the drain, want queued", r.procs[0].end[r.ids[3]].State)
	}
}

// TestCrashRecoveryFlipsRunningToQueued: two crash restarts, the first
// process timeslicing at every iteration.
func TestCrashRecoveryFlipsRunningToQueued(t *testing.T) {
	sc := pinnedScenario([]int{8, 8, 8}, sub, sub, sub, step{kind: restart, crash: 7}, step{kind: restart, crash: 7})
	sc.servers[0].SliceIterations = 1
	if r := checkServeScenario(t, sc); r.flips[r.ids[2]] != 2 {
		t.Errorf("the last job's record was rewritten %d times, want 2", r.flips[r.ids[2]])
	}
}

func TestDrainRequeuesRunningJobViaCheckpoint(t *testing.T) {
	r := checkServeScenario(t, pinnedScenario([]int{8}, sub, reboot))
	if v, files := r.procs[0].end[r.ids[0]], r.procs[0].checkpoints[r.ids[0]]; v.State != StateQueued || files == 0 {
		t.Errorf("after the drain the job was %s with %d checkpoint files", v.State, files)
	}
}

// TestFinishedJobsLeaveNoCheckpoints: a job evicted and then done, and one
// evicted and then cancelled, leave no checkpoint directory, nor do the
// directories a crash after their terminal records leaves behind outlive the
// next start-up (checkServeScenario); nor does a failed job's.
func TestFinishedJobsLeaveNoCheckpoints(t *testing.T) {
	r := checkServeScenario(t, pinnedScenario([]int{8, 6}, sub, evict(0), wait(0), sub, evict(1), step{kind: cancelJob, job: 1}, step{kind: restart, crash: 3}))
	if v0, v1 := r.view(0), r.view(1); v0.State != StateDone || v0.Evictions != 1 || v1.State != StateCancelled || v1.Evictions != 1 || len(r.missed) != 2 {
		t.Errorf("job 0 ended %s after %d evictions, job 1 %s after %d, steps missed %v; want done, cancelled, each after 1, and the crash's 2",
			v0.State, v0.Evictions, v1.State, v1.Evictions, r.missed)
	}
	s := testServer(t, nil)
	defer s.Drain()
	j := &Job{ID: "j00000000", State: StateRunning}
	if err := os.MkdirAll(s.checkpointDir(j.ID), 0o755); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.jobs[j.ID] = j
	err := s.finishLocked(j, StateFailed, errors.New("the engine failed"))
	s.mu.Unlock()
	if _, serr := os.Stat(s.checkpointDir(j.ID)); err != nil || !os.IsNotExist(serr) {
		t.Errorf("a failed job's record (%v) left its checkpoint directory (%v)", err, serr)
	}
}

func TestServerStatsCountersAdvance(t *testing.T) {
	if st := checkServeScenario(t, pinnedScenario([]int{6, 6, 6}, sub, sub, sub)).procs[0].stats; st.Admitted != 3 || st.Completed != 3 {
		t.Errorf("stats %+v", st)
	}
}

func TestManySmallJobsAllComplete(t *testing.T) {
	sc := pinnedScenario(nil)
	sc.tensors = []planted{testPlanted(1), testPlanted(2), testPlanted(3)}
	sc.servers[0].MaxRunning, sc.servers[0].SliceIterations = 3, 3
	for i := 0; i < 12; i++ {
		sc.jobs = append(sc.jobs, JobSpec{Tenant: fmt.Sprintf("tenant%d", i%4), TensorID: fmt.Sprintf("x%d", i%3), Rank: 3, MaxIter: 5, MinIter: 5, Seed: int64(i)})
	}
	if st := checkServeScenario(t, sc).procs[0].stats; st.Completed != 12 {
		t.Errorf("%d of 12 jobs done", st.Completed)
	}
}

// TestServedTracesValidate: the first job on a tensor builds its set in its
// one run, a later job reads it, and an evicted job reads it in both runs.
func TestServedTracesValidate(t *testing.T) {
	r := checkServeScenario(t, pinnedScenario([]int{6, 6, 8}, sub, wait(0), sub, wait(1), sub, evict(2), wait(2)))
	for j, want := range [][]int{{3}, {0}, {0, 0}} {
		var got []int
		for _, run := range r.runs[r.ids[j]] {
			got = append(got, run.shuffles)
		}
		if !slices.Equal(got, want) {
			t.Errorf("job %d's runs hold %v shuffles, want %v", j, got, want)
		}
	}
}

// TestSharedSetServedAfterRestart: a drain leaves a job evicted mid-run on x0
// and two queued on x1; the restarted server starts all three at once, the
// resumed job builds x0, and x1 is built once (checkSetUp).
func TestSharedSetServedAfterRestart(t *testing.T) {
	sc := pinnedScenario([]int{8, 6, 6}, sub, sub, sub, reboot)
	sc.tensors, sc.jobs[1].TensorID, sc.jobs[2].TensorID = append(sc.tensors, testPlanted(8)), "x1", "x1"
	sc.servers = append(sc.servers, Config{MaxRunning: 3, GateSlots: 2, SliceIterations: -1, DrainTimeout: 20 * time.Second})
	r := checkServeScenario(t, sc)
	for j := range sc.jobs {
		if v := r.procs[0].end[r.ids[j]]; v.State != StateQueued {
			t.Errorf("job %d was %s after the drain, want queued", j, v.State)
		}
	}
	if runs := r.runs[r.ids[0]]; runs[len(runs)-1].shuffles != 3 {
		t.Errorf("the resumed job's runs %+v; want the last to build x0", runs)
	}
}

// sinkFunc adapts a function to trace.Sink.
type sinkFunc func(*trace.Event)

func (f sinkFunc) Write(ev *trace.Event) error { f(ev); return nil }
func (sinkFunc) Close() error                  { return nil }

// TestCancelAsSliceEndsIsKept: a Cancel that lands after a slice returned
// core.ErrPreempted, before the server requeued the job, cancels it. The
// first job waits at its run_begin until the second is queued, so the
// one-iteration timeslice ends its slice, and its sink cancels it on that
// slice's run_end.
func TestCancelAsSliceEndsIsKept(t *testing.T) {
	s := testServer(t, func(c *Config) { c.SliceIterations = 1 })
	defer s.Drain()
	if err := s.PutTensor("x1", testTensor(7)); err != nil {
		t.Fatal(err)
	}
	queued, cancelled, runs := make(chan struct{}), make(chan error, 1), 0
	s.traces["j00000000"] = &jobTrace{progress: &progressSink{}, tracer: trace.New(sinkFunc(func(ev *trace.Event) {
		if ev.Type == trace.RunBegin {
			if runs++; runs == 1 {
				<-queued
			}
		} else if ev.Type == trace.RunEnd && runs == 1 {
			cancelled <- s.Cancel("j00000000")
		}
	}))}
	v, err := s.Submit(baseSpec("x1"))
	if err == nil {
		_, err = s.Submit(baseSpec("x1"))
	}
	close(queued)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-cancelled; err != nil {
		t.Fatalf("Cancel as the slice ended: %v", err)
	}
	if got := waitTerminal(t, s, v.ID); got.State != StateCancelled {
		t.Fatalf("Cancel returned nil, but the job ended %s after %d evictions", got.State, got.Evictions)
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"dbtf/internal/serve"
	"dbtf/internal/trace"
)

// service is an in-process job server behind a real loopback listener:
// the program's public HTTP surface, with the benchmark as its only
// client.
type service struct {
	w       workload
	srv     *serve.Server
	httpSrv *http.Server
	served  chan error
	base    string
	client  *http.Client
	dataDir string
	cancel  func()
	// UploadTime is what POSTing the tensors took.
	UploadTime time.Duration
}

// startService is one complete set-up as an operator pays it: open the
// server over a fresh data directory, listen, upload every input file,
// and run one cold job to its terminal state.
func startService(ctx context.Context, w workload, in *inputs, scratch string) (_ *service, err error) {
	dataDir, err := os.MkdirTemp(scratch, "serve-")
	if err != nil {
		return nil, err
	}
	s := &service{w: w, dataDir: dataDir, client: &http.Client{}, served: make(chan error, 1)}
	s.cancel = onExit(func() { _ = os.RemoveAll(dataDir) })
	defer func() {
		if err != nil {
			err = errors.Join(err, s.close())
		}
	}()
	s.srv, err = serve.New(serve.Config{DataDir: dataDir, MaxRunning: 2, Machines: w.Machines})
	if err != nil {
		return nil, err
	}
	lis, err := new(net.ListenConfig).Listen(ctx, "tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.base = "http://" + lis.Addr().String()
	s.httpSrv = &http.Server{Handler: s.srv.Handler()}
	//dbtf:detached joined by close, which shuts the server down and receives from s.served
	go func() { s.served <- s.httpSrv.Serve(lis) }()

	t0 := time.Now()
	for k, f := range in.Files {
		body, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		if err := s.post(ctx, fmt.Sprintf("/v1/tensors/%s", tensorID(k)), body, http.StatusCreated, nil); err != nil {
			return nil, fmt.Errorf("uploading %s: %w", f, err)
		}
	}
	s.UploadTime = time.Since(t0)
	view, _, err := s.submit(ctx, in.Variants[0], 0)
	if err != nil {
		return nil, fmt.Errorf("cold job: %w", err)
	}
	views, err := s.await(ctx, []string{view.ID})
	if err != nil {
		return nil, err
	}
	if v := views[view.ID]; v.State != serve.StateDone {
		return nil, fmt.Errorf("cold job %s ended %s: %s", v.ID, v.State, v.Error)
	}
	return s, nil
}

func tensorID(k int) string { return fmt.Sprintf("x%d", k) }

// close drains the server, stops the listener and removes the data
// directory; it returns once the serving goroutine has ended.
func (s *service) close() error {
	var errs []error
	if s.srv != nil {
		s.srv.Drain()
	}
	if s.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, s.httpSrv.Shutdown(ctx))
		cancel()
		if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	s.client.CloseIdleConnections()
	errs = append(errs, os.RemoveAll(s.dataDir))
	s.cancel()
	return errors.Join(errs...)
}

// do sends one request and returns the body of a response that carries the
// wanted status.
func (s *service) do(ctx context.Context, method, path string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// post and get decode a JSON response into into, when it is not nil.
func (s *service) post(ctx context.Context, path string, body []byte, want int, into any) error {
	data, err := s.do(ctx, http.MethodPost, path, body, want)
	if err != nil || into == nil {
		return err
	}
	return json.Unmarshal(data, into)
}

func (s *service) get(ctx context.Context, path string, into any) error {
	data, err := s.do(ctx, http.MethodGet, path, nil, http.StatusOK)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, into)
}

// spec is the job a variant stands for; tenants rotate with the op
// index so the fair queue has four of them to serve.
func (s *service) spec(v variant, i int) serve.JobSpec {
	return serve.JobSpec{
		Tenant:   fmt.Sprintf("tenant%d", i%4),
		TensorID: tensorID(v.Input),
		Rank:     s.w.Rank,
		MaxIter:  s.w.Iters,
		MinIter:  s.w.Iters,
		Seed:     v.Seed,
	}
}

// submit POSTs one job and returns the admitted view with the time the
// acknowledgement took.
func (s *service) submit(ctx context.Context, v variant, i int) (serve.JobView, time.Duration, error) {
	body, err := json.Marshal(s.spec(v, i))
	if err != nil {
		return serve.JobView{}, 0, err
	}
	var view serve.JobView
	t0 := time.Now()
	err = s.post(ctx, "/v1/jobs", body, http.StatusAccepted, &view)
	return view, time.Since(t0), err
}

// await polls each job until it is terminal. Latencies come from the
// server's own finished_nanos, so the poll interval only decides how soon
// the benchmark notices, not what it measures; jobs finish roughly in
// submission order, so all but the last few answer on the first request.
func (s *service) await(ctx context.Context, ids []string) (map[string]serve.JobView, error) {
	deadline := time.Now().Add(60 * time.Second)
	done := make(map[string]serve.JobView, len(ids))
	for _, id := range ids {
		for {
			var v serve.JobView
			if err := s.get(ctx, "/v1/jobs/"+id, &v); err != nil {
				return nil, err
			}
			if v.State.Terminal() {
				done[id] = v
				break
			}
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("job %s still %s after 60s", id, v.State)
			}
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(2 * time.Millisecond):
			}
		}
	}
	return done, nil
}

// jobTrace fetches a finished job's event stream.
func (s *service) jobTrace(ctx context.Context, id string) ([]*trace.Event, error) {
	data, err := s.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/trace", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	return trace.DecodeJSONL(bytes.NewReader(data))
}

// job is one open-loop submission and what became of it.
type job struct {
	outcome
	ID string
	// Late is how far behind its due instant the generator sent the job;
	// Ack how long the POST took; Queue and Service split the server's
	// share into waiting for a slot and running.
	Late, Ack, Queue, Service time.Duration
}

// openLoop submits one job every gap for the window, whether or not
// earlier ones have finished — independent users, not callers awaiting a
// reply — then waits for all of them. It submits at least minJobs.
func (s *service) openLoop(ctx context.Context, in *inputs, window, gap time.Duration, minJobs int) ([]job, error) {
	n := max(int(window/gap), minJobs)
	jobs := make([]job, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * gap)
		select {
		case <-ctx.Done():
			return jobs, ctx.Err()
		case <-time.After(time.Until(due)):
		}
		vi := i % len(in.Variants)
		j := job{outcome: outcome{Variant: vi}, Late: time.Since(due)}
		var view serve.JobView
		view, j.Ack, j.Err = s.submit(ctx, in.Variants[vi], i)
		j.ID = view.ID
		// Until the job's own finish time is known, the op lasted at
		// least until its submission was answered.
		j.Wall = time.Since(due)
		jobs = append(jobs, j)
	}
	var ids []string
	for _, j := range jobs {
		if j.Err == nil {
			ids = append(ids, j.ID)
		}
	}
	views, err := s.await(ctx, ids)
	if err != nil {
		return jobs, err
	}
	for i := range jobs {
		j := &jobs[i]
		if j.Err != nil {
			continue
		}
		v := views[j.ID]
		due := start.Add(time.Duration(i) * gap).UnixNano()
		j.Wall = time.Duration(v.FinishedNanos - due)
		j.Queue = time.Duration(v.StartedNanos - v.SubmittedNanos)
		j.Service = time.Duration(v.FinishedNanos - v.StartedNanos)
		if v.State != serve.StateDone || v.Result == nil {
			j.Err = fmt.Errorf("job %s ended %s: %s", v.ID, v.State, v.Error)
			continue
		}
		j.Sim = time.Duration(v.Result.SimNanos)
		j.RelErr = v.Result.RelativeError
		j.Hash = v.Result.FactorHash
	}
	return jobs, nil
}

// fillTraffic sets the formula traffic and the stage count of every job
// from the run_end snapshot of its variant's first trace: the spec fixes
// both, so one fetch per variant covers all its repeats.
func (s *service) fillTraffic(ctx context.Context, jobs []job) error {
	byVariant := map[int]*trace.StatsDelta{}
	for i := range jobs {
		j := &jobs[i]
		if j.Err != nil {
			continue
		}
		final, ok := byVariant[j.Variant]
		if !ok {
			events, err := s.jobTrace(ctx, j.ID)
			if err != nil {
				return err
			}
			if final = foldEvents(nil, -1, 0, events); final == nil {
				return fmt.Errorf("trace of %s has no run_end snapshot", j.ID)
			}
			byVariant[j.Variant] = final
		}
		j.Traffic = final.ShuffledBytes + final.BroadcastBytes + final.CollectedBytes
		j.Stages = final.Stages
	}
	return nil
}

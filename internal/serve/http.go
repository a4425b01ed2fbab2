package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"time"
)

// Handler returns the server's HTTP API:
//
//	POST   /v1/tensors/{id}        upload a tensor (binary DBT1 or text)
//	GET    /v1/tensors             list tensor IDs
//	POST   /v1/jobs                submit a job spec (JSON)
//	GET    /v1/jobs                list jobs (?tenant= filters)
//	GET    /v1/jobs/{id}           one job's state and progress
//	GET    /v1/jobs/{id}/result    the finished job's result
//	GET    /v1/jobs/{id}/trace     the job's JSONL trace stream (?follow=1 tails)
//	POST   /v1/jobs/{id}/evict     preempt at the next iteration boundary
//	DELETE /v1/jobs/{id}           cancel
//	GET    /v1/stats               operational counters
//	GET    /healthz                liveness (503 while draining)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/tensors/{id}", s.handlePutTensor)
	mux.HandleFunc("GET /v1/tensors", s.handleListTensors)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("POST /v1/jobs/{id}/evict", s.handleEvict)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

// apiError is the JSON error body every non-2xx response carries.
type apiError struct {
	Error  string `json:"error"`
	Reason string `json:"reason,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	//dbtf:allow-unchecked response-body write failure leaves nothing to report to
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, apiError{Error: err.Error()})
}

// writeAdmissionError maps a shed decision onto 429/503 with the
// Retry-After the admission layer computed.
func writeAdmissionError(w http.ResponseWriter, aerr *AdmissionError) {
	status := http.StatusTooManyRequests
	if aerr.Reason == "draining" {
		status = http.StatusServiceUnavailable
	}
	secs := int64(aerr.RetryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	//dbtf:allow-unchecked response-body write failure leaves nothing to report to
	_ = enc.Encode(apiError{Error: aerr.Error(), Reason: aerr.Reason})
}

// putTensorStatus is the status of a refused upload: 409 for an id already
// taken, 400 for anything else wrong with the request.
func putTensorStatus(err error) int {
	if errors.Is(err, ErrTensorExists) {
		return http.StatusConflict
	}
	return http.StatusBadRequest
}

func (s *Server) handlePutTensor(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// The id is checked before up to maxTensorBytes of body are parsed for
	// an upload that cannot succeed.
	if err := s.checkTensorID(id); err != nil {
		writeError(w, putTensorStatus(err), err)
		return
	}
	body := http.MaxBytesReader(w, r.Body, maxTensorBytes)
	t, err := DecodeTensor(body)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("serve: tensor upload exceeds %d bytes", maxTensorBytes))
			return
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.PutTensor(id, t); err != nil {
		writeError(w, putTensorStatus(err), err)
		return
	}
	i, j, k := t.Dims()
	writeJSON(w, http.StatusCreated, map[string]any{
		"id": id, "dims": [3]int{i, j, k}, "nnz": t.NNZ(),
	})
}

func (s *Server) handleListTensors(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"tensors": s.TensorIDs()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := DecodeJobSpec(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	view, err := s.Submit(spec)
	if err != nil {
		var aerr *AdmissionError
		switch {
		case errors.As(err, &aerr):
			writeAdmissionError(w, aerr)
		case errors.Is(err, ErrTensorNotFound):
			writeError(w, http.StatusNotFound, err)
		default:
			writeError(w, http.StatusBadRequest, err)
		}
		return
	}
	writeJSON(w, http.StatusAccepted, view)
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"jobs": s.JobList(r.URL.Query().Get("tenant")),
	})
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	view, ok := s.JobByID(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, noJob(r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	view, ok := s.JobByID(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, noJob(r.PathValue("id")))
		return
	}
	if view.Result == nil {
		writeError(w, http.StatusConflict,
			fmt.Errorf("serve: job %s is %s; no result yet", view.ID, view.State))
		return
	}
	writeJSON(w, http.StatusOK, view.Result)
}

// handleTrace streams the job's JSONL trace file. With ?follow=1 it
// tails the file, polling until the job reaches a terminal state — a
// plain curl shows iterations landing live.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.JobByID(id); !ok {
		writeError(w, http.StatusNotFound, noJob(id))
		return
	}
	follow := r.URL.Query().Get("follow") != ""
	path := tracePath(s.cfg.DataDir, id)
	if _, err := os.Stat(path); os.IsNotExist(err) && !follow {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: job %s has no trace yet", id))
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	// Each poll re-opens the file and resumes at the last offset, so the
	// appender and the tail never share a descriptor.
	var offset int64
	copyAvailable := func() {
		f, err := os.Open(path)
		if err != nil {
			return // first slice may not have started yet
		}
		defer f.Close()
		if _, err := f.Seek(offset, io.SeekStart); err != nil {
			return
		}
		//dbtf:allow-unchecked client disconnects surface on the next poll; the copied count still advances the offset
		n, _ := io.Copy(w, f)
		offset += n
		if flusher != nil {
			flusher.Flush()
		}
	}
	copyAvailable()
	if !follow {
		return
	}
	for {
		view, ok := s.JobByID(id)
		if !ok || view.State.Terminal() {
			copyAvailable()
			return
		}
		// A draining server evicts running jobs back to queued — never
		// terminal — so a follower waiting for terminality would outlive
		// Drain and pin http.Server.Shutdown past its deadline. End the
		// tail with what has been written; the client re-follows after
		// restart.
		if s.Draining() {
			copyAvailable()
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-time.After(100 * time.Millisecond):
		}
		copyAvailable()
	}
}

// jobActionStatus is the status of a refused evict or cancel: 404 for an
// unknown job, 409 for one in the wrong state.
func jobActionStatus(err error) int {
	if errors.Is(err, ErrNoJob) {
		return http.StatusNotFound
	}
	return http.StatusConflict
}

func (s *Server) handleEvict(w http.ResponseWriter, r *http.Request) {
	if err := s.Evict(r.PathValue("id")); err != nil {
		writeError(w, jobActionStatus(err), err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"status": "evicting"})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if err := s.Cancel(r.PathValue("id")); err != nil {
		writeError(w, jobActionStatus(err), err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"status": "cancelling"})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.StatsSnapshot())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeError(w, http.StatusServiceUnavailable, errors.New("serve: draining"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

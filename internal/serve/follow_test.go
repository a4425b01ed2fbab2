package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestTraceFollowEndsOnDrain pins the drain/follow interaction: Drain
// evicts running jobs back to queued — never terminal — so a ?follow=1
// tail waiting for terminality would spin forever and pin the HTTP
// server's shutdown past its deadline. The follower must end once the
// server is draining.
func TestTraceFollowEndsOnDrain(t *testing.T) {
	s := testServer(t, func(cfg *Config) {
		cfg.MaxRunning = 1
	})
	if err := s.PutTensor("x1", testTensor(7)); err != nil {
		t.Fatal(err)
	}
	// The hog occupies the single slot so the followed job stays queued
	// (no terminal transition can end the tail on its own). It asks for
	// the most iterations a job may, so it is still running at the drain
	// however fast an iteration is.
	hogSpec := baseSpec("x1")
	hogSpec.MaxIter = MaxIterLimit
	hogSpec.MinIter = MaxIterLimit
	hog, err := s.Submit(hogSpec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, hog.ID, func(v JobView) bool { return v.State == StateRunning }, "hog running")
	queued, err := s.Submit(baseSpec("x1"))
	if err != nil {
		t.Fatal(err)
	}

	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	type result struct {
		status int
		err    error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := http.Get(hs.URL + "/v1/jobs/" + queued.ID + "/trace?follow=1")
		if err != nil {
			got <- result{err: err}
			return
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		got <- result{status: resp.StatusCode, err: err}
	}()

	// Let the follower reach its polling loop before draining.
	time.Sleep(250 * time.Millisecond)
	select {
	case r := <-got:
		t.Fatalf("follower ended before drain: %+v", r)
	default:
	}
	s.Drain()

	select {
	case r := <-got:
		if r.err != nil {
			t.Fatalf("follow request failed: %v", r.err)
		}
		if r.status != http.StatusOK {
			t.Fatalf("follow status = %d, want 200", r.status)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("?follow=1 tail did not end after Drain; it would pin HTTP shutdown")
	}

	// The followed job survived the drain as a queued (not lost) job.
	v, ok := s.JobByID(queued.ID)
	if !ok || v.State != StateQueued {
		t.Fatalf("followed job after drain: ok=%v state=%v, want queued", ok, v.State)
	}
}

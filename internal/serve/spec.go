// Package serve is the factorization-as-a-service layer: a long-running
// job server that admits, queues, throttles, evicts, and resumes DBTF
// factorization jobs on a shared engine without ever losing one.
//
// The robustness mechanics reuse the repo's existing currencies: PR-3
// iteration checkpoints make eviction a cheap, bit-identical timeslice
// boundary; PR-5 JSONL trace streams are the live progress feed; the
// checkpoint's atomic writer (internal/durable) keeps job metadata and
// uploaded tensors crash-safe. See DESIGN.md §13 for the admission state
// machine, the eviction/resume protocol, and the fairness policy.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"dbtf/internal/boolmat"
	"dbtf/internal/core"
	"dbtf/internal/tensor"
)

// Limits bound adversarial inputs at the HTTP boundary.
const (
	// MaxSpecBytes bounds a job-spec request body.
	MaxSpecBytes = 1 << 16
	// MaxRank is the engine's rank ceiling.
	MaxRank = boolmat.MaxRank
	// MaxIterLimit bounds requested iterations per job.
	MaxIterLimit = 10000
	// MaxInitialSets bounds the initial factor sets per job.
	MaxInitialSets = 64
	// maxIDLen bounds tenant and tensor identifiers.
	maxIDLen = 64
)

// JobSpec is the client-supplied description of one factorization job.
// It is deliberately a plain-old-data subset of dbtf.Options: everything
// needed to reproduce the run bit-identically from the spec alone.
type JobSpec struct {
	// Tenant identifies the submitting tenant for fairness, quotas, and
	// rate limits. Required; [A-Za-z0-9_-], at most 64 bytes.
	Tenant string `json:"tenant"`
	// TensorID names a previously uploaded tensor. Required; same
	// charset as Tenant.
	TensorID string `json:"tensor_id"`
	// Rank is the decomposition rank R. Required; 1..64.
	Rank int `json:"rank"`
	// MaxIter bounds the alternating iterations. Default 10.
	MaxIter int `json:"max_iter,omitempty"`
	// MinIter disables convergence checks before this iteration.
	MinIter int `json:"min_iter,omitempty"`
	// InitialSets is the number of initial factor sets tried.
	InitialSets int `json:"initial_sets,omitempty"`
	// Init selects the initialization scheme: "fiber" (default),
	// "random", or "topfiber". Part of the checkpoint fingerprint, so a
	// resubmitted spec must keep it to resume a prior run's checkpoint.
	Init string `json:"init,omitempty"`
	// Seed makes the job deterministic; resubmitting the same spec
	// against the same tensor reproduces the same factors bit for bit.
	Seed int64 `json:"seed,omitempty"`
	// Tolerance is the convergence tolerance on the error improvement.
	Tolerance int64 `json:"tolerance,omitempty"`
	// Priority orders a tenant's own jobs: higher runs first. It never
	// lets one tenant jump another's queue. -100..100.
	Priority int `json:"priority,omitempty"`
}

func validIdent(s string) bool {
	if len(s) == 0 || len(s) > maxIDLen {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// Validate checks the spec against the service limits and then against the
// engine's own option rules (core.Options.Validate), so a spec that decodes
// is one Decompose will not refuse: nothing the engine rejects ever takes a
// queue slot or a memory-ledger charge.
func (s *JobSpec) Validate() error {
	switch {
	case !validIdent(s.Tenant):
		return errors.New("serve: tenant must be 1-64 chars of [A-Za-z0-9_-]")
	case !validIdent(s.TensorID):
		return errors.New("serve: tensor_id must be 1-64 chars of [A-Za-z0-9_-]")
	case s.MaxIter < 0 || s.MaxIter > MaxIterLimit:
		return fmt.Errorf("serve: max_iter must be 0..%d, got %d", MaxIterLimit, s.MaxIter)
	case s.MinIter < 0 || s.MinIter > MaxIterLimit:
		return fmt.Errorf("serve: min_iter must be 0..%d, got %d", MaxIterLimit, s.MinIter)
	case s.InitialSets < 0 || s.InitialSets > MaxInitialSets:
		return fmt.Errorf("serve: initial_sets must be 0..%d, got %d", MaxInitialSets, s.InitialSets)
	case s.Priority < -100 || s.Priority > 100:
		return fmt.Errorf("serve: priority must be -100..100, got %d", s.Priority)
	}
	if _, err := core.ParseInitScheme(s.Init); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if err := s.Options().Validate(); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// Options returns the engine options the spec describes — the one place a
// JobSpec becomes core.Options. The server adds checkpoint placement and
// its eviction hook; a verifier rerunning the job adds nothing. An
// unparsable Init (Validate rejects it) maps to the default scheme.
func (s *JobSpec) Options() core.Options {
	scheme, _ := core.ParseInitScheme(s.Init)
	return core.Options{
		Rank:        s.Rank,
		MaxIter:     s.MaxIter,
		MinIter:     s.MinIter,
		InitialSets: s.InitialSets,
		Init:        scheme,
		Tolerance:   s.Tolerance,
		Seed:        s.Seed,
	}
}

// DecodeJobSpec parses and validates one job spec from at most
// MaxSpecBytes of r. Unknown fields are rejected so a client typo never
// silently changes a run. The reader is consumed at most MaxSpecBytes+1
// bytes; larger bodies are rejected, never buffered.
func DecodeJobSpec(r io.Reader) (*JobSpec, error) {
	lr := &io.LimitedReader{R: r, N: MaxSpecBytes + 1}
	dec := json.NewDecoder(lr)
	dec.DisallowUnknownFields()
	var spec JobSpec
	if err := dec.Decode(&spec); err != nil {
		if lr.N == 0 {
			return nil, fmt.Errorf("serve: job spec exceeds %d bytes", MaxSpecBytes)
		}
		return nil, fmt.Errorf("serve: decoding job spec: %w", err)
	}
	// A body with trailing garbage after the JSON object is malformed.
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("serve: trailing data after job spec")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &spec, nil
}

// DecodeTensor parses an uploaded tensor body in either the compact
// binary format or the text format (tensor.ReadAny). The caller bounds
// the reader (http.MaxBytesReader); the binary parser additionally caps
// its preallocation against forged headers.
func DecodeTensor(r io.Reader) (*tensor.Tensor, error) {
	t, err := tensor.ReadAny(r)
	if errors.Is(err, tensor.ErrEmpty) {
		return nil, errors.New("serve: empty tensor body")
	}
	return t, err
}

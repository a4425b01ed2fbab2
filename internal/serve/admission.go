package serve

import (
	"fmt"
	"math"
	"time"
)

// AdmissionError is a typed rejection: the server sheds the request
// explicitly (HTTP 429 or 503) instead of degrading, and tells the
// client when to come back.
type AdmissionError struct {
	// Reason is a short machine-readable cause ("queue_full",
	// "tenant_quota", "memory_budget", "rate_limited", "draining").
	Reason string
	// RetryAfter is the suggested backoff before resubmitting.
	RetryAfter time.Duration
	// Detail is the human-readable explanation.
	Detail string
}

func (e *AdmissionError) Error() string {
	return fmt.Sprintf("serve: admission rejected (%s): %s", e.Reason, e.Detail)
}

// tokenBucket is a per-tenant rate limiter with an injectable clock.
type tokenBucket struct {
	tokens float64
	last   time.Time
}

// take refills the bucket at rate tokens/second up to burst, then takes
// one token. When the bucket is empty it returns false and the wait
// until the next token accrues.
func (b *tokenBucket) take(now time.Time, rate, burst float64) (bool, time.Duration) {
	if b.last.IsZero() {
		b.tokens = burst
	} else if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = math.Min(burst, b.tokens+dt*rate)
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	if rate <= 0 {
		return false, time.Hour
	}
	need := 1 - b.tokens
	return false, time.Duration(math.Ceil(need / rate * float64(time.Second)))
}

// full reports whether the bucket has refilled to its burst by now: from
// then on it admits exactly as a tenant never seen does.
func (b *tokenBucket) full(now time.Time, rate, burst float64) bool {
	return b.tokens+now.Sub(b.last).Seconds()*rate >= burst
}

// admissionState tracks everything the admit decision needs; guarded by
// the Server's mutex.
type admissionState struct {
	buckets map[string]*tokenBucket
	// sweepAt is the map size at which bucket next drops the full buckets.
	sweepAt int
	// memoryBytes is the sum of the tensor-size estimates of every
	// queued and running job: the explicit budget that replaces "grow
	// until OOM".
	memoryBytes int64
	// Shed counters by reason, for /v1/stats and the load report.
	shed map[string]int64
}

func newAdmissionState() *admissionState {
	return &admissionState{buckets: map[string]*tokenBucket{}, shed: map[string]int64{}}
}

// bucket returns the tenant's token bucket, creating it on first sight. A
// tenant id is outside input, so the map must not keep every id ever seen:
// once it holds more tenants than the queue limit could hold jobs for, the
// buckets that have refilled to their burst are dropped. What stays is the
// tenants seen within the last TenantBurst/TenantRate seconds; the next
// sweep waits until the map has doubled, so a submit pays amortized O(1).
func (a *admissionState) bucket(now time.Time, tenant string, cfg AdmissionConfig) *tokenBucket {
	if b, ok := a.buckets[tenant]; ok {
		return b
	}
	if len(a.buckets) >= max(a.sweepAt, cfg.MaxQueued) {
		for id, b := range a.buckets {
			if b.full(now, cfg.TenantRate, cfg.TenantBurst) {
				delete(a.buckets, id)
			}
		}
		a.sweepAt = 2 * len(a.buckets)
	}
	b := &tokenBucket{}
	a.buckets[tenant] = b
	return b
}

// admit decides whether one job may enter the queue. It is pure
// bookkeeping over the caller-held state: the Server calls it under its
// mutex with current queue depths and the job's memory estimate.
func (a *admissionState) admit(now time.Time, spec *JobSpec, cfg AdmissionConfig,
	queued, tenantQueued, running int, jobBytes int64) *AdmissionError {
	reject := func(reason string, retry time.Duration, format string, args ...any) *AdmissionError {
		a.shed[reason]++
		return &AdmissionError{Reason: reason, RetryAfter: retry, Detail: fmt.Sprintf(format, args...)}
	}
	if ok, wait := a.bucket(now, spec.Tenant, cfg).take(now, cfg.TenantRate, cfg.TenantBurst); !ok {
		return reject("rate_limited", wait,
			"tenant %q exceeds %.3g jobs/s (burst %.3g)", spec.Tenant, cfg.TenantRate, cfg.TenantBurst)
	}
	if total := queued + running; total >= cfg.MaxQueued {
		return reject("queue_full", cfg.RetryAfter,
			"%d jobs queued or running (limit %d)", total, cfg.MaxQueued)
	}
	if tenantQueued >= cfg.MaxQueuedPerTenant {
		return reject("tenant_quota", cfg.RetryAfter,
			"tenant %q has %d queued jobs (limit %d)", spec.Tenant, tenantQueued, cfg.MaxQueuedPerTenant)
	}
	if a.memoryBytes+jobBytes > cfg.MemoryBudget {
		return reject("memory_budget", cfg.RetryAfter,
			"job needs ~%d bytes, %d of %d budget in use", jobBytes, a.memoryBytes, cfg.MemoryBudget)
	}
	a.memoryBytes += jobBytes
	return nil
}

// releaseMemory returns a finished or cancelled job's estimate to the
// budget.
func (a *admissionState) releaseMemory(jobBytes int64) {
	a.memoryBytes -= jobBytes
	if a.memoryBytes < 0 {
		a.memoryBytes = 0
	}
}

// AdmissionConfig bounds the server's explicit budgets. Zero values
// select the defaults in withDefaults.
type AdmissionConfig struct {
	// MaxQueued bounds queued+running jobs across all tenants.
	MaxQueued int
	// MaxQueuedPerTenant bounds one tenant's queued jobs.
	MaxQueuedPerTenant int
	// MemoryBudget bounds the summed tensor-size estimates of queued and
	// running jobs, in bytes.
	MemoryBudget int64
	// TenantRate is the per-tenant admission rate in jobs/second.
	TenantRate float64
	// TenantBurst is the per-tenant burst allowance.
	TenantBurst float64
	// RetryAfter is the Retry-After hint for budget rejections.
	RetryAfter time.Duration
}

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.MaxQueued == 0 {
		c.MaxQueued = 1024
	}
	if c.MaxQueuedPerTenant == 0 {
		c.MaxQueuedPerTenant = 256
	}
	if c.MemoryBudget == 0 {
		c.MemoryBudget = 1 << 30
	}
	if c.TenantRate == 0 {
		c.TenantRate = 50
	}
	if c.TenantBurst == 0 {
		c.TenantBurst = 100
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = time.Second
	}
	return c
}

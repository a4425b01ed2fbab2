package serve

import (
	"fmt"
	"testing"
	"time"
)

func admitSpec(tenant string) *JobSpec {
	return &JobSpec{Tenant: tenant, TensorID: "x", Rank: 2}
}

func TestAdmitQueueFull(t *testing.T) {
	a := newAdmissionState()
	cfg := AdmissionConfig{MaxQueued: 3, RetryAfter: 2 * time.Second}.withDefaults()
	now := time.Unix(1000, 0)
	// queued+running at the limit: reject with the configured backoff.
	aerr := a.admit(now, admitSpec("t"), cfg, 2, 0, 1, 100)
	if aerr == nil || aerr.Reason != "queue_full" {
		t.Fatalf("admit = %v, want queue_full", aerr)
	}
	if aerr.RetryAfter != 2*time.Second {
		t.Fatalf("RetryAfter = %v, want 2s", aerr.RetryAfter)
	}
	if a.shed["queue_full"] != 1 {
		t.Fatalf("shed = %v", a.shed)
	}
	// One slot free: admitted, and the memory estimate is reserved.
	if aerr := a.admit(now, admitSpec("t"), cfg, 1, 0, 1, 100); aerr != nil {
		t.Fatalf("admit with free slot = %v", aerr)
	}
	if a.memoryBytes != 100 {
		t.Fatalf("memoryBytes = %d, want 100", a.memoryBytes)
	}
}

func TestAdmitTenantQuota(t *testing.T) {
	a := newAdmissionState()
	cfg := AdmissionConfig{MaxQueuedPerTenant: 2}.withDefaults()
	now := time.Unix(1000, 0)
	aerr := a.admit(now, admitSpec("greedy"), cfg, 5, 2, 0, 10)
	if aerr == nil || aerr.Reason != "tenant_quota" {
		t.Fatalf("admit = %v, want tenant_quota", aerr)
	}
	// Another tenant is unaffected by greedy's quota.
	if aerr := a.admit(now, admitSpec("other"), cfg, 5, 0, 0, 10); aerr != nil {
		t.Fatalf("other tenant = %v", aerr)
	}
}

func TestAdmitMemoryBudget(t *testing.T) {
	a := newAdmissionState()
	cfg := AdmissionConfig{MemoryBudget: 1000}.withDefaults()
	now := time.Unix(1000, 0)
	if aerr := a.admit(now, admitSpec("t"), cfg, 0, 0, 0, 600); aerr != nil {
		t.Fatalf("first admit = %v", aerr)
	}
	aerr := a.admit(now, admitSpec("t"), cfg, 1, 1, 0, 600)
	if aerr == nil || aerr.Reason != "memory_budget" {
		t.Fatalf("admit = %v, want memory_budget", aerr)
	}
	// Releasing the first job's estimate frees the budget again.
	a.releaseMemory(600)
	if aerr := a.admit(now, admitSpec("t"), cfg, 0, 0, 0, 600); aerr != nil {
		t.Fatalf("admit after release = %v", aerr)
	}
	a.releaseMemory(9999) // floors at zero, never goes negative
	if a.memoryBytes != 0 {
		t.Fatalf("memoryBytes = %d, want 0", a.memoryBytes)
	}
}

func TestAdmitRateLimitRefillsOverTime(t *testing.T) {
	a := newAdmissionState()
	cfg := AdmissionConfig{TenantRate: 1, TenantBurst: 2}.withDefaults()
	now := time.Unix(1000, 0)
	for i := 0; i < 2; i++ {
		if aerr := a.admit(now, admitSpec("t"), cfg, 0, 0, 0, 1); aerr != nil {
			t.Fatalf("burst admit %d = %v", i, aerr)
		}
	}
	aerr := a.admit(now, admitSpec("t"), cfg, 0, 0, 0, 1)
	if aerr == nil || aerr.Reason != "rate_limited" {
		t.Fatalf("admit = %v, want rate_limited", aerr)
	}
	if aerr.RetryAfter <= 0 || aerr.RetryAfter > 2*time.Second {
		t.Fatalf("RetryAfter = %v, want ~1s", aerr.RetryAfter)
	}
	// A second tenant has its own bucket.
	if aerr := a.admit(now, admitSpec("u"), cfg, 0, 0, 0, 1); aerr != nil {
		t.Fatalf("tenant u = %v", aerr)
	}
	// After the backoff the bucket has refilled.
	later := now.Add(1100 * time.Millisecond)
	if aerr := a.admit(later, admitSpec("t"), cfg, 0, 0, 0, 1); aerr != nil {
		t.Fatalf("admit after refill = %v", aerr)
	}
}

func TestTokenBucketZeroRateNeverRefills(t *testing.T) {
	b := &tokenBucket{}
	now := time.Unix(1000, 0)
	if ok, _ := b.take(now, 0, 1); !ok {
		t.Fatal("burst token should be available")
	}
	ok, wait := b.take(now.Add(time.Hour), 0, 1)
	if ok {
		t.Fatal("zero rate should never refill")
	}
	if wait != time.Hour {
		t.Fatalf("wait = %v, want 1h sentinel", wait)
	}
}

// TestTenantBucketsDoNotAccumulate cycles 10,000 distinct tenant ids — a
// tenant id is outside input — past the rate limiter while one hog keeps
// submitting. The bucket map must stay bounded by the tenants recent enough
// to matter, and dropping refilled buckets must change no verdict: the hog's
// match a lone token bucket fed the same instants, and a returning one-shot
// tenant is admitted as a fresh one would be.
func TestTenantBucketsDoNotAccumulate(t *testing.T) {
	a := newAdmissionState()
	cfg := AdmissionConfig{MaxQueued: 8, TenantRate: 50, TenantBurst: 2}.withDefaults()
	now := time.Unix(1000, 0)
	var hog tokenBucket
	limited := 0
	for i := 0; i < 10000; i++ {
		now = now.Add(time.Millisecond)
		if aerr := a.admit(now, admitSpec(fmt.Sprintf("t%d", i)), cfg, 0, 0, 0, 0); aerr != nil {
			t.Fatalf("one-shot tenant %d = %v", i, aerr)
		}
		if i%10 != 0 {
			continue
		}
		// 100 submits/s against 50 tokens/s: the hog is shed about half
		// the time, so its bucket is never full and must never be dropped.
		want, _ := hog.take(now, cfg.TenantRate, cfg.TenantBurst)
		aerr := a.admit(now, admitSpec("hog"), cfg, 0, 0, 0, 0)
		if got := aerr == nil; got != want {
			t.Fatalf("step %d: hog admitted = %v, a lone bucket says %v (%v)", i, got, want, aerr)
		}
		if aerr != nil {
			limited++
		}
	}
	if limited < 400 {
		t.Fatalf("hog rate-limited %d times of 1000, want about half", limited)
	}
	// A one-shot tenant's bucket is full again after 20 ms = 20 tenants;
	// sweeps start at MaxQueued entries and wait for the map to double.
	if n := len(a.buckets); n > 100 {
		t.Fatalf("%d buckets held after 10,000 one-shot tenants", n)
	}
	for i := 0; i < 2; i++ {
		if aerr := a.admit(now, admitSpec("t0"), cfg, 0, 0, 0, 0); aerr != nil {
			t.Fatalf("returning tenant, submit %d of its burst = %v", i, aerr)
		}
	}
}

package serve

import "testing"

func qjob(tenant string, seq int64, prio int) *Job {
	return &Job{
		ID:   tenant + string(rune('0'+seq%10)),
		Seq:  seq,
		Spec: JobSpec{Tenant: tenant, Priority: prio},
	}
}

func popIDs(q *fairQueue, n int) []string {
	var ids []string
	for i := 0; i < n; i++ {
		j := q.pop()
		if j == nil {
			break
		}
		ids = append(ids, j.ID)
	}
	return ids
}

func TestFairQueueRoundRobinAcrossTenants(t *testing.T) {
	q := newFairQueue()
	// Tenant a dumps three jobs before tenant b submits one; b must not
	// wait behind all of a's backlog.
	q.push(qjob("a", 1, 0))
	q.push(qjob("a", 2, 0))
	q.push(qjob("a", 3, 0))
	q.push(qjob("b", 4, 0))
	got := popIDs(q, 4)
	want := []string{"a1", "b4", "a2", "a3"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order = %v, want %v", got, want)
		}
	}
	if q.pop() != nil {
		t.Fatal("queue should be empty")
	}
}

func TestFairQueuePriorityThenFIFOWithinTenant(t *testing.T) {
	q := newFairQueue()
	q.push(qjob("a", 1, 0))
	q.push(qjob("a", 2, 5)) // higher priority jumps the tenant's own queue
	q.push(qjob("a", 3, 5)) // ties break FIFO by push
	q.push(qjob("a", 4, 5))
	q.push(q.pop()) // so a2, pushed again as a yielded job is, goes behind a4
	got := popIDs(q, 4)
	want := []string{"a3", "a4", "a2", "a1"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order = %v, want %v", got, want)
		}
	}
}

func TestFairQueueRemove(t *testing.T) {
	q := newFairQueue()
	q.push(qjob("a", 1, 0))
	q.push(qjob("b", 2, 0))
	q.push(qjob("a", 3, 0))
	if j := q.remove("a1"); j == nil || j.ID != "a1" {
		t.Fatalf("remove(a1) = %v", j)
	}
	if j := q.remove("a1"); j != nil {
		t.Fatalf("second remove(a1) = %v, want nil", j)
	}
	if q.len() != 2 {
		t.Fatalf("len = %d, want 2", q.len())
	}
	got := popIDs(q, 2)
	if len(got) != 2 {
		t.Fatalf("popped %v", got)
	}
	seen := map[string]bool{got[0]: true, got[1]: true}
	if !seen["b2"] || !seen["a3"] {
		t.Fatalf("popped %v, want b2 and a3", got)
	}
}

func TestFairQueueRemoveLastOfTenantKeepsRotationValid(t *testing.T) {
	q := newFairQueue()
	q.push(qjob("a", 1, 0))
	q.push(qjob("b", 2, 0))
	q.push(qjob("c", 3, 0))
	// Advance the cursor past a, then remove b (the tenant at the
	// cursor): the rotation must stay in bounds.
	if j := q.pop(); j.ID != "a1" {
		t.Fatalf("pop = %v", j.ID)
	}
	if j := q.remove("b2"); j == nil {
		t.Fatal("remove(b2) = nil")
	}
	if j := q.pop(); j == nil || j.ID != "c3" {
		t.Fatalf("pop after remove = %v, want c3", j)
	}
	if q.len() != 0 {
		t.Fatalf("len = %d, want 0", q.len())
	}
}

package serve

import "container/heap"

// fairQueue is the scheduler's ready queue: round-robin across tenants
// (each pop serves the next tenant in rotation, so a tenant that dumps a
// thousand jobs cannot starve one that submits a single job), and within
// a tenant a priority heap (higher Priority first, FIFO by push among
// equals, so a job that yields its slot queues behind the ones that
// waited). Not safe for concurrent use; the Server's mutex guards it.
type fairQueue struct {
	tenants map[string]*tenantHeap
	// order is the round-robin rotation; tenants join at the back when
	// their first job arrives and leave when their queue drains.
	order  []string
	next   int
	size   int
	pushes int64 // stamps each pushed job's queuedAt
}

func newFairQueue() *fairQueue {
	return &fairQueue{tenants: map[string]*tenantHeap{}}
}

func (q *fairQueue) len() int { return q.size }

func (q *fairQueue) tenantLen(tenant string) int {
	if th, ok := q.tenants[tenant]; ok {
		return th.Len()
	}
	return 0
}

func (q *fairQueue) push(j *Job) {
	th, ok := q.tenants[j.Spec.Tenant]
	if !ok {
		th = &tenantHeap{}
		q.tenants[j.Spec.Tenant] = th
		q.order = append(q.order, j.Spec.Tenant)
	}
	q.pushes++
	j.queuedAt = q.pushes
	heap.Push(th, j)
	q.size++
}

// pop removes and returns the next job by the fairness policy, or nil
// when the queue is empty.
func (q *fairQueue) pop() *Job {
	if q.size == 0 {
		return nil
	}
	if q.next >= len(q.order) {
		q.next = 0
	}
	tenant := q.order[q.next]
	th := q.tenants[tenant]
	j := heap.Pop(th).(*Job)
	q.size--
	if th.Len() == 0 {
		delete(q.tenants, tenant)
		q.order = append(q.order[:q.next], q.order[q.next+1:]...)
		// The rotation continues with the tenant that slid into this slot.
	} else {
		q.next++
	}
	if q.next >= len(q.order) {
		q.next = 0
	}
	return j
}

// remove deletes the queued job with the given ID, returning it, or nil
// if no queued job has that ID.
func (q *fairQueue) remove(id string) *Job {
	for tenant, th := range q.tenants {
		for i, j := range *th {
			if j.ID != id {
				continue
			}
			//dbtf:allow-unchecked container/heap.Remove returns the removed element, not an error
			heap.Remove(th, i)
			q.size--
			if th.Len() == 0 {
				delete(q.tenants, tenant)
				for k, name := range q.order {
					if name == tenant {
						q.order = append(q.order[:k], q.order[k+1:]...)
						if q.next > k {
							q.next--
						}
						break
					}
				}
				if q.next >= len(q.order) {
					q.next = 0
				}
			}
			return j
		}
	}
	return nil
}

// tenantHeap orders one tenant's jobs: higher priority first, then FIFO
// by push.
type tenantHeap []*Job

func (h tenantHeap) Len() int { return len(h) }
func (h tenantHeap) Less(a, b int) bool {
	if h[a].Spec.Priority != h[b].Spec.Priority {
		return h[a].Spec.Priority > h[b].Spec.Priority
	}
	return h[a].queuedAt < h[b].queuedAt
}
func (h tenantHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }

func (h *tenantHeap) Push(x any) { *h = append(*h, x.(*Job)) }

func (h *tenantHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return j
}

// Package fixtures seeds the guardedby analyzer's true positives and
// accepted negatives. The file parses but is never compiled.
package fixtures

import "sync"

type counterSet struct {
	mu sync.Mutex
	// hits is the mutated hot counter.
	//dbtf:guardedby mu
	hits int64
	// misses shares the guard.
	//dbtf:guardedby mu
	misses int64
	// name is immutable after construction and deliberately unannotated.
	name string
}

// goodLocked locks before touching the fields.
func (c *counterSet) goodLocked() {
	c.mu.Lock()
	c.hits++
	c.misses++
	c.mu.Unlock()
}

// badUnlocked touches a guarded field with no lock in sight.
func (c *counterSet) badUnlocked() int64 {
	return c.hits // want `c\.hits is guarded by c\.mu, which is not visibly held here`
}

// badPartialLock locks the mutex only after the first access.
func (c *counterSet) badPartialLock() {
	c.misses++ // want `c\.misses is guarded by c\.mu`
	c.mu.Lock()
	c.hits++
	c.mu.Unlock()
}

// goodUnannotated reads the unannotated field freely.
func (c *counterSet) goodUnannotated() string { return c.name }

// mergeLocked follows the Locked-suffix convention: the caller holds mu.
func (c *counterSet) mergeLocked(other int64) {
	c.hits += other
}

// construct builds a fresh, unshared value; composite-literal fields are
// construction, not access, and the local is vouched by the scoped
// function-level escape.
//
//dbtf:allow-unguarded fresh: not yet shared with any other goroutine
func construct() *counterSet {
	fresh := &counterSet{name: "fresh"}
	fresh.hits = 1
	return fresh
}

// badScopedEscape shows the scope of the function-level escape: it vouches
// for one identifier only, so the other receiver is still checked.
//
//dbtf:allow-unguarded fresh: not yet shared
func badScopedEscape(shared *counterSet) {
	fresh := &counterSet{}
	fresh.hits = 1
	shared.hits = 2 // want `shared\.hits is guarded by shared\.mu`
}

// goodLineEscape suppresses a single access with a reason.
func goodLineEscape(c *counterSet) int64 {
	return c.hits //dbtf:allow-unguarded snapshot tolerates a stale read
}

// badBareLineEscape suppresses without a reason, which is itself flagged.
func badBareLineEscape(c *counterSet) int64 {
	//dbtf:allow-unguarded
	return c.misses // want `requires a reason`
}

// bump mutates under its own lock; callers may pass a guarded field's
// address into a method on the same receiver.
func (c *counterSet) bump(field *int64) {
	c.mu.Lock()
	*field++
	c.mu.Unlock()
}

// goodAddressToOwnMethod passes &c.hits to c's own method.
func (c *counterSet) goodAddressToOwnMethod() {
	c.bump(&c.hits)
}

type badAnnotation struct {
	//dbtf:guardedby lock
	value int // want `names no field of struct badAnnotation`
}

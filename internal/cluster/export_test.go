package cluster

import "time"

// Deterministic gives c the engine clock the golden tests use, stepping
// step per reading, on one lane, so that a run's simulated times repeat
// exactly for the tests of package cluster_test.
func Deterministic(c *Cluster, step time.Duration) {
	c.now = stepClock(step)
	c.parallelism = 1
}

// StepClock is stepClock for package cluster_test.
var StepClock = stepClock

package cluster

import "fmt"

// FaultPlan deterministically injects machine failures into a cluster.
// Spark's resilience claim — lost tasks are re-executed, lost machines'
// work is reassigned — is only testable if failures can be produced on
// demand; a FaultPlan schedules them reproducibly: whether attempt a of
// task t in stage s is failed or panicked is a pure function of
// (Seed, s, t, a), independent of goroutine scheduling and host load. Two
// runs of the same workload under the same plan therefore inject the
// identical fault schedule.
//
// Every fault kind here changes program state — a lost attempt re-runs a
// kernel, a lost machine invalidates its caches and re-ships its partitions
// — and is priced from the run itself: the wasted attempt's measured
// duration, one NetworkModel.LatencyPerStage per relaunch, the recovery
// bytes over one link.
//
// Injected failures and panics are transient by construction: the final
// allowed attempt of a task always runs clean, so a fault plan can never
// fail a decomposition — it only costs time. Real task errors are not
// shielded this way: a task that genuinely fails on every attempt aborts
// the stage.
type FaultPlan struct {
	// Seed determines the entire fault schedule.
	Seed int64
	// FailureRate is the probability that a task attempt is lost after
	// doing its work (the machine dies before reporting back). The wasted
	// attempt's measured duration is charged to the simulated clock.
	FailureRate float64
	// PanicRate is the probability that a task attempt panics instead of
	// running, exercising the engine's recovery path.
	PanicRate float64
	// MachineLossRate is the per-stage probability that each live machine
	// is lost at the stage boundary, drawn deterministically per
	// (Seed, stage, machine). A lost machine's tasks are reassigned to
	// survivors, its machine-local caches are invalidated (see
	// Cluster.OnMachineLoss), and the recovery traffic is charged to the
	// simulated clock. The engine never kills the last live machine, so a
	// loss plan can slow a run but not fail it. Must lie in [0, 1).
	MachineLossRate float64
	// MachineRejoinAfter, when positive, lets a lost machine rejoin
	// service that many stages after its loss. The rejoining machine
	// re-fetches the broadcast working set (priced on the simulated
	// clock) and rebuilds its caches lazily. Zero means lost machines
	// never rejoin.
	MachineRejoinAfter int

	// machineKills deterministically kills specific machines at specific
	// stages, independent of MachineLossRate and of the seed. Set by this
	// package's tests only.
	machineKills []machineKill
}

// machineKill schedules the loss of one machine at the boundary of one
// stage (stages are numbered from 0 in execution order).
type machineKill struct {
	Stage   int64
	Machine int
}

func (p *FaultPlan) validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{{"FailureRate", p.FailureRate}, {"PanicRate", p.PanicRate}} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("cluster: FaultPlan.%s %v outside [0,1]", r.name, r.v)
		}
	}
	if p.FailureRate+p.PanicRate > 1 {
		return fmt.Errorf("cluster: FaultPlan rates sum to %v > 1", p.FailureRate+p.PanicRate)
	}
	if p.MachineLossRate < 0 || p.MachineLossRate >= 1 {
		return fmt.Errorf("cluster: FaultPlan.MachineLossRate %v outside [0,1)", p.MachineLossRate)
	}
	if p.MachineRejoinAfter < 0 {
		return fmt.Errorf("cluster: FaultPlan.MachineRejoinAfter %d < 0", p.MachineRejoinAfter)
	}
	for _, k := range p.machineKills {
		if k.Stage < 0 || k.Machine < 0 {
			return fmt.Errorf("cluster: FaultPlan.machineKills entry %+v has negative fields", k)
		}
	}
	return nil
}

// lossesPossible reports whether the plan can ever produce a machine loss,
// so the engine can skip per-stage loss bookkeeping entirely otherwise.
func (p *FaultPlan) lossesPossible() bool {
	return p.MachineLossRate > 0 || len(p.machineKills) > 0
}

// machineLossTag separates the machine-loss draw stream from the per-task
// fault draws of the same seed.
const machineLossTag = 0x6d6c6f7373 // "mloss"

// drawMachineLoss reports whether machine `machine` is scheduled to be
// lost at the boundary of stage `stage`: a pure function of
// (Seed, stage, machine) plus the explicit kill list, independent of
// goroutine scheduling, so loss schedules replay exactly.
func (p *FaultPlan) drawMachineLoss(stage int64, machine int) bool {
	for _, k := range p.machineKills {
		if k.Stage == stage && k.Machine == machine {
			return true
		}
	}
	if p.MachineLossRate <= 0 {
		return false
	}
	h := splitmix64(uint64(p.Seed) ^ machineLossTag)
	h = splitmix64(h ^ uint64(stage))
	h = splitmix64(h ^ uint64(machine))
	return float64(h>>11)/(1<<53) < p.MachineLossRate
}

// faultKind is the outcome drawn for one task attempt.
type faultKind int

const (
	faultNone faultKind = iota
	// faultFail loses the attempt after it runs: work done, result gone.
	faultFail
	// faultPanic crashes the attempt before it runs.
	faultPanic
)

// draw returns the scheduled fault for attempt `attempt` of task `task` in
// stage `stage`. last marks the task's final allowed attempt, on which
// nothing is injected (see the type comment).
func (p *FaultPlan) draw(stage int64, task, attempt int, last bool) faultKind {
	if last {
		return faultNone
	}
	h := splitmix64(uint64(p.Seed))
	h = splitmix64(h ^ uint64(stage))
	h = splitmix64(h ^ uint64(task))
	h = splitmix64(h ^ uint64(attempt))
	r := float64(h>>11) / (1 << 53)
	switch {
	case r < p.FailureRate:
		return faultFail
	case r < p.FailureRate+p.PanicRate:
		return faultPanic
	default:
		return faultNone
	}
}

// splitmix64 is the finalizer of the SplitMix64 generator: a cheap,
// high-quality bit mixer used to derive per-attempt fault draws.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

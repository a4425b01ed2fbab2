// Package cluster simulates the distributed substrate DBTF runs on. The
// paper implements DBTF on Apache Spark over a 17-node cluster; this
// package provides the equivalent single-process execution engine:
//
//   - M logical machines execute partition-parallel stages. Real execution
//     uses a goroutine pool bounded by the host's CPUs so measured per-task
//     durations approximate dedicated-core times.
//   - A simulated clock tracks what the same stages would cost on M real
//     machines: each stage contributes max-over-machines of the summed task
//     durations of the tasks statically assigned to that machine (Spark's
//     even partition placement), plus a configurable per-stage network cost
//     fed by the engine's traffic accounting. Driver-side sequential
//     sections contribute their measured duration directly.
//   - Traffic counters record shuffled, broadcast, and collected bytes so
//     the volume claims of the paper's Lemmas 6 and 7 can be validated.
//   - Failed tasks are re-executed with bounded attempts, reproducing
//     Spark's task-level fault tolerance — a lost attempt costs its measured
//     duration plus one scheduling round to relaunch; and whole machines
//     can be lost (and rejoin), with the dead machine's tasks reassigned to
//     survivors and its machine-local state invalidated — see FaultPlan,
//     OnMachineLoss, and Stats.
//
// The machine-scalability experiment (paper Figure 7) reports simulated
// makespans; all other experiments compare real wall-clock times of the
// competing methods under the same engine.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"dbtf/internal/trace"
	"dbtf/internal/transport"
)

// NetworkModel prices the simulated cluster's communication. A stage pays
// LatencyPerStage once (barrier/synchronization cost) plus transfer time
// for the traffic recorded since the previous stage. BytesPerSecond is
// the per-link bandwidth; traffic classes use the links differently:
//
//   - shuffled and broadcast data flow to M machines in parallel
//     (Spark's shuffle fan-out and torrent broadcast), so they are priced
//     against M links;
//   - collected data converges on the driver's single downlink;
//   - recovery re-broadcasts after a machine loss or rejoin target a
//     single machine and are priced against one link.
type NetworkModel struct {
	LatencyPerStage time.Duration
	BytesPerSecond  float64
}

// DefaultNetwork approximates a commodity gigabit-ethernet cluster like the
// paper's testbed.
var DefaultNetwork = NetworkModel{
	LatencyPerStage: 2 * time.Millisecond,
	BytesPerSecond:  125e6, // 1 Gbit/s
}

// Config configures a Cluster.
type Config struct {
	// Machines is the number of logical machines M. Must be >= 1.
	Machines int
	// Faults, when non-nil, injects deterministic task failures, panics,
	// and machine losses from a seed; see FaultPlan.
	Faults *FaultPlan
	// Tracer, when non-nil, receives a structured event for every stage,
	// driver section, traffic charge, retry, machine loss/recovery, and
	// checkpoint — see package trace. Nil disables tracing at the cost of
	// one nil check per emission site.
	Tracer *trace.Tracer
	// Transport, when non-nil, executes remote-capable stages (see
	// RunStage) on real machines instead of the simulated pool. The
	// engine keeps all accounting — stage numbering, the formula-based
	// traffic counters, liveness books — so a remote run's Stats message
	// counts match the simulated run's exactly; only the measured times
	// (and the extra Wire trace events carrying real socket bytes)
	// differ. Machine losses come from the transport's failure detection
	// instead of a FaultPlan: the two are mutually exclusive, and
	// Transport.Machines() must equal Machines.
	Transport transport.Transport
	// Gate, when non-nil, bounds concurrent task execution across every
	// cluster sharing it — the job server's host-CPU admission gate. See
	// Gate. Waiting at the gate is host contention and is not charged to
	// the simulated clock.
	Gate *Gate

	// network prices simulated communication. Set by this package's tests
	// only; New fills in DefaultNetwork, the one value every other caller
	// runs on.
	network NetworkModel
}

// maxAttempts is how often a task runs before its failure aborts the stage:
// Spark's default of 4 attempts per task. Task errors and recovered panics
// are treated as transient machine failures, as Spark treats lost executors.
const maxAttempts = 4

// Stats holds the cumulative traffic and execution counters of a cluster;
// the fields are documented on trace.StatsDelta, the one declaration the
// engine's books and the event stream's deltas share.
// Snapshots returned by Cluster.Stats are internally consistent: every
// counter is read under one lock, and counters produced inside a stage
// (retries, injected faults) are published together with that stage's time
// accounting at the stage boundary — a snapshot taken while a stage runs
// concurrently can never show, say, a retry whose task time is missing.
type Stats = trace.StatsDelta

// Cluster is a simulated multi-machine execution engine.
type Cluster struct {
	machines int
	// parallelism bounds the real goroutines executing a stage's tasks:
	// min(Machines, GOMAXPROCS), so measured task durations approximate
	// dedicated-core execution.
	parallelism int
	network     NetworkModel
	faults      *FaultPlan
	// tracer receives the structured event stream; nil when tracing is
	// disabled (the nil-receiver fast path). Immutable after New.
	tracer *trace.Tracer
	// transport executes remote-capable stages on real machines; nil
	// selects the simulated pool. Immutable after New.
	transport transport.Transport
	// gate bounds concurrent task execution across clusters; nil means
	// ungated. Immutable after New.
	gate *Gate

	// now is the clock used to measure task and driver durations;
	// replaceable in tests for deterministic ledger checks.
	now func() time.Time

	mu sync.Mutex
	// st accumulates every cumulative counter; Stats copies it under mu
	// so snapshots are torn-free.
	//dbtf:guardedby mu
	st Stats
	// simNanos is the simulated elapsed time.
	//dbtf:guardedby mu
	simNanos int64
	// stage-local traffic snapshots, used to price the network cost of
	// the stage that is about to run, per traffic class.
	//dbtf:guardedby mu
	lastShuffled, lastBroadcast, lastCollected int64
	// lastCheckpoint is the checkpoint-bytes snapshot at the previous
	// stage boundary (and at ResetClock), so per-stage trace deltas and
	// timed experiment phases never attribute pre-phase checkpoint
	// traffic to the wrong stage or phase.
	//dbtf:guardedby mu
	lastCheckpoint int64
	// liveBroadcast is the per-machine broadcast working set in bytes
	// (see BroadcastState): what a machine must re-fetch to rejoin the
	// stage pipeline after a loss.
	//dbtf:guardedby mu
	liveBroadcast int64
	// recoveryNanos accumulates single-link recovery transfer time to be
	// charged to the next stage's network cost.
	//dbtf:guardedby mu
	recoveryNanos int64
	// alive[m] reports whether logical machine m is in service; diedAt[m]
	// is the stage at which a dead machine was lost. At least one machine
	// is always alive.
	//dbtf:guardedby mu
	alive []bool
	//dbtf:guardedby mu
	aliveCount int
	//dbtf:guardedby mu
	diedAt []int64
	//dbtf:guardedby mu
	lossHandler func(machine int)
	// pendingRecoveries counts machine losses not yet absorbed by a
	// successfully completed stage.
	//dbtf:guardedby mu
	pendingRecoveries int64
}

// Validate reports what is wrong with the configuration, nil when New
// accepts it. Callers holding configuration from outside the program
// (flags, a request, the public Options) check it here and return the
// error; New itself panics on a rejected Config, which by then is a bug.
func (cfg Config) Validate() error {
	if cfg.Machines < 1 {
		return fmt.Errorf("cluster: machines must be >= 1, got %d", cfg.Machines)
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.validate(); err != nil {
			return err
		}
		for _, k := range cfg.Faults.machineKills {
			if k.Machine >= cfg.Machines {
				return fmt.Errorf("cluster: machineKills machine %d outside cluster of %d", k.Machine, cfg.Machines)
			}
		}
	}
	if cfg.Transport != nil {
		if cfg.Faults != nil {
			return errors.New("cluster: Faults and Transport are mutually exclusive (remote failures come from the transport's failure detection)")
		}
		if tm := cfg.Transport.Machines(); tm != cfg.Machines {
			return fmt.Errorf("cluster: Transport has %d machines, cluster has %d", tm, cfg.Machines)
		}
	}
	return nil
}

// New returns a cluster with the given configuration. It panics on a
// configuration Validate rejects.
func New(cfg Config) *Cluster {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	net := cfg.network
	if net == (NetworkModel{}) {
		net = DefaultNetwork
	}
	alive := make([]bool, cfg.Machines)
	for i := range alive {
		alive[i] = true
	}
	return &Cluster{
		machines: cfg.Machines, parallelism: min(cfg.Machines, runtime.GOMAXPROCS(0)), network: net,
		faults: cfg.Faults, tracer: cfg.Tracer, transport: cfg.Transport, gate: cfg.Gate,
		//dbtf:allow-nondeterministic default clock measures real task durations; tests inject a deterministic one
		now:   time.Now,
		alive: alive, aliveCount: cfg.Machines, diedAt: make([]int64, cfg.Machines),
	}
}

// Machines returns the number of logical machines M.
func (c *Cluster) Machines() int { return c.machines }

// Tracer returns the cluster's tracer, nil when tracing is disabled.
// Clients (the decomposition driver) emit their own events — iteration
// and run spans — onto the same stream.
func (c *Cluster) Tracer() *trace.Tracer { return c.tracer }

// LiveMachines returns the number of machines currently in service.
func (c *Cluster) LiveMachines() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.aliveCount
}

// MachineFor returns the logical machine that task t of any stage
// executes on. The home placement is t mod M, the engine's static
// round-robin rule (the same rule the simulated clock uses to attribute
// task durations); while the home machine is lost, the task is reassigned
// to the next live machine in ring order. The placement is stable across
// stages for as long as the machine set is stable — machine losses and
// rejoins happen only at stage boundaries — so stages may key
// machine-local state (per-machine cache tables, scratch pools) by this
// index. Tasks that share a machine may still execute concurrently in real
// time (the goroutine pool is bounded by the host's CPUs, not by M), so
// machine-local state must be internally synchronized.
func (c *Cluster) MachineFor(task int) int {
	if task < 0 {
		panic(fmt.Sprintf("cluster: negative task index %d", task))
	}
	home := task % c.machines
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reassignLocked(home)
}

// reassignLocked maps a home machine to its current stand-in: itself while
// alive, else the next live machine in ring order. At least one machine is
// always alive.
func (c *Cluster) reassignLocked(home int) int {
	if c.alive[home] {
		return home
	}
	for i := 1; i < c.machines; i++ {
		if m := (home + i) % c.machines; c.alive[m] {
			return m
		}
	}
	return home
}

// OnMachineLoss registers fn to be invoked for every machine lost at a
// stage boundary, from the goroutine entering the stage and before any of
// the stage's tasks run. The handler owns the client-side recovery: it
// typically drops the machine's local caches (they died with the machine)
// and records the traffic of re-shipping the machine's pinned partitions
// to survivors via Shuffle. A nil fn unregisters the handler.
func (c *Cluster) OnMachineLoss(fn func(machine int)) {
	c.mu.Lock()
	c.lossHandler = fn
	c.mu.Unlock()
}

// Stats returns a consistent snapshot of the traffic and execution
// counters: all fields are read under one lock, and in-stage counters are
// published only at stage boundaries together with the stage's time
// accounting.
func (c *Cluster) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st
}

// Shuffle records bytes moved between machines during repartitioning.
func (c *Cluster) Shuffle(bytes int64) {
	c.mu.Lock()
	c.st.ShuffledBytes += bytes
	sim := c.simNanos
	c.mu.Unlock()
	c.emitTraffic(trace.Shuffle, bytes, sim)
}

// Broadcast records bytes sent from the driver to every machine; the
// recorded traffic is bytes × Machines, matching Lemma 7's O(M·I·R) term.
func (c *Cluster) Broadcast(bytes int64) {
	recorded := bytes * int64(c.machines)
	c.mu.Lock()
	c.st.BroadcastBytes += recorded
	sim := c.simNanos
	c.mu.Unlock()
	c.emitTraffic(trace.Broadcast, recorded, sim)
}

// BroadcastState records a broadcast like Broadcast and additionally marks
// bytes as the per-machine broadcast working set: the state a machine must
// re-fetch before it can execute tasks again after a machine loss or
// rejoin. Successive calls replace the working set — DBTF re-broadcasts
// fresh factor matrices every iteration, superseding the previous ones.
func (c *Cluster) BroadcastState(bytes int64) {
	recorded := bytes * int64(c.machines)
	c.mu.Lock()
	c.st.BroadcastBytes += recorded
	c.liveBroadcast = bytes
	sim := c.simNanos
	c.mu.Unlock()
	c.emitTraffic(trace.Broadcast, recorded, sim)
}

// Collect records bytes returned from partitions to the driver.
func (c *Cluster) Collect(bytes int64) {
	c.mu.Lock()
	c.st.CollectedBytes += bytes
	sim := c.simNanos
	c.mu.Unlock()
	c.emitTraffic(trace.Collect, bytes, sim)
}

// RecordCheckpoint records the durable write of an iteration checkpoint of
// the given size (Stats.CheckpointBytes). The write itself is driver-side
// disk I/O; its wall-clock cost is measured by the driver section that
// performs it, so only the byte count is recorded here.
func (c *Cluster) RecordCheckpoint(bytes int64) {
	c.mu.Lock()
	c.st.CheckpointBytes += bytes
	sim := c.simNanos
	c.mu.Unlock()
	c.emitTraffic(trace.Checkpoint, bytes, sim)
}

// emitTraffic publishes one traffic charge to the tracer: bytes is the
// exact increment applied to the corresponding Stats counter, so folding
// the stream's traffic events reproduces the byte counters.
func (c *Cluster) emitTraffic(typ trace.Type, bytes, sim int64) {
	if !c.tracer.Enabled() {
		return
	}
	ev := trace.NewEvent(typ)
	ev.Bytes = bytes
	ev.SimNanos = sim
	c.tracer.Emit(ev)
}

// chargeRecoveryLocked prices a single-machine re-fetch of bytes over one
// link and schedules it into the next stage's network cost. The bytes are
// added to BroadcastBytes once (they target one machine, not M).
func (c *Cluster) chargeRecoveryLocked(bytes int64) {
	c.st.BroadcastBytes += bytes
	if c.network.BytesPerSecond > 0 {
		c.recoveryNanos += int64(float64(bytes) / c.network.BytesPerSecond * 1e9)
	}
}

// stageState is one stage in flight: what its lanes run and share, and the
// per-stage accounting. The accounting is merged into the
// cluster's cumulative counters in one critical section at the stage
// boundary, so concurrent Stats snapshots never observe a half-published
// stage. States are recycled through stagePool — a stage costs no state of
// its own — so nothing may hold one past releaseStage.
type stageState struct {
	c *Cluster
	// ctx is what the tasks are cancelled by; on the simulated backend it
	// also carries the stage's pprof labels. fn is the task, n their number.
	ctx context.Context
	fn  func(int) error
	n   int
	// stage, label and beginSim identify the stage in trace events and
	// errors: index, human label, and the simulated clock at the stage
	// boundary (in-stage events resolve at the boundary on the simulated
	// clock). Written only before the stage starts.
	stage    int64
	label    string
	beginSim int64

	// wg joins the lanes; next hands out task indices; failed stops the
	// hand-out at the first failure, whose error the lane that flipped it
	// leaves in firstErr for the stage to read after the join.
	wg       sync.WaitGroup
	next     atomic.Int64
	failed   atomic.Bool
	firstErr error

	mu sync.Mutex
	// perMachine sums simulated task nanos per logical machine.
	//dbtf:guardedby mu
	perMachine []int64
	//dbtf:guardedby mu
	retries int64
	//dbtf:guardedby mu
	injected int64
}

// stagePool is the free list of stage states. It is shared by every cluster
// of the process: concurrent stages, on one cluster or several, each take
// their own.
var stagePool = sync.Pool{New: func() any { return new(stageState) }}

// releaseStage returns a joined stage's state to the free list, zeroed but
// for the ledger's backing array.
//
//dbtf:allow-unguarded st: the stage is over and its workers joined, so st is no longer shared
func releaseStage(st *stageState) {
	*st = stageState{perMachine: st.perMachine[:0]}
	stagePool.Put(st)
}

func (st *stageState) charge(machine int, nanos int64) {
	st.mu.Lock()
	st.perMachine[machine] += nanos
	st.mu.Unlock()
}

func (st *stageState) bump(counter *int64) {
	st.mu.Lock()
	*counter++
	st.mu.Unlock()
}

// fail records the stage's first failure and stops the task hand-out.
func (st *stageState) fail(err error) {
	if st.failed.CompareAndSwap(false, true) {
		st.firstErr = err
	}
}

// transition is one machine liveness change applied at a stage boundary.
type transition struct {
	machine int
	up      bool
}

// setLiveLocked applies one liveness transition to the books — the single
// statement of what a loss and a rejoin cost, whether a FaultPlan drew it
// or a transport observed it — and reports whether anything changed. A
// loss marks the machine dead as of stage and leaves a recovery pending
// for the next successful stage; a rejoin counts as a completed recovery.
// Either way one machine (the survivor taking over, or the rejoiner)
// re-fetches the broadcast working set over a single link. The last live
// machine is never marked dead: reassignment needs a survivor.
func (c *Cluster) setLiveLocked(m int, up bool, stage int64) bool {
	if up == c.alive[m] || (!up && c.aliveCount <= 1) {
		return false
	}
	c.alive[m] = up
	if up {
		c.aliveCount++
		c.st.Recoveries++
	} else {
		c.aliveCount--
		c.diedAt[m] = stage
		c.st.MachineLosses++
		c.pendingRecoveries++
	}
	c.chargeRecoveryLocked(c.liveBroadcast)
	return true
}

// announce publishes applied transitions, in order, as boundary trace
// events and then invokes the loss handler for every machine lost. Called
// outside the lock: handlers record recovery traffic through
// Shuffle/Collect, which take the lock themselves.
func (c *Cluster) announce(applied []transition, stage, sim, recoveryBytes int64, handler func(machine int)) {
	if c.tracer.Enabled() {
		for _, tr := range applied {
			typ := trace.MachineLoss
			if tr.up {
				typ = trace.MachineRejoin
			}
			ev := trace.NewEvent(typ)
			ev.Stage, ev.Machine, ev.Bytes, ev.SimNanos = stage, tr.machine, recoveryBytes, sim
			c.tracer.Emit(ev)
		}
	}
	if handler != nil {
		for _, tr := range applied {
			if !tr.up {
				handler(tr.machine)
			}
		}
	}
}

// beginStage numbers the stage, applies scheduled machine rejoins and
// losses at its boundary, invokes the loss handler for every machine lost,
// and returns the stage's state with zeroed accounting, which the caller
// hands to releaseStage once the stage has ended. Liveness events and the
// stage's begin event are emitted at the boundary, before any task runs —
// losses are therefore never inside a stage span on the trace.
func (c *Cluster) beginStage(ctx context.Context, name string, n int, fn func(int) error) *stageState {
	var applied []transition
	c.mu.Lock()
	stage := c.st.Stages
	c.st.Stages++
	c.st.Tasks += int64(n)
	beginSim := c.simNanos
	recoveryBytes := c.liveBroadcast
	if c.faults != nil && c.faults.lossesPossible() {
		if after := int64(c.faults.MachineRejoinAfter); after > 0 {
			for m := range c.alive {
				if !c.alive[m] && stage-c.diedAt[m] >= after && c.setLiveLocked(m, true, stage) {
					applied = append(applied, transition{m, true})
				}
			}
		}
		for m := range c.alive {
			if c.faults.drawMachineLoss(stage, m) && c.setLiveLocked(m, false, stage) {
				applied = append(applied, transition{m, false})
			}
		}
	}
	handler := c.lossHandler
	c.mu.Unlock()
	c.announce(applied, stage, beginSim, recoveryBytes, handler)
	if c.tracer.Enabled() {
		ev := trace.NewEvent(trace.StageBegin)
		ev.Stage, ev.Name, ev.Tasks, ev.SimNanos = stage, name, n, beginSim
		c.tracer.Emit(ev)
	}
	st := stagePool.Get().(*stageState)
	st.c, st.ctx, st.fn, st.n = c, ctx, fn, n
	st.stage, st.label, st.beginSim = stage, name, beginSim
	st.perMachine = append(st.perMachine, make([]int64, c.machines)...)
	return st
}

// endStage merges the stage's accounting into the cumulative counters in
// one critical section: makespan, network cost (including pending recovery
// transfers), and every in-stage fault counter. ok marks a stage that
// completed without error; it absorbs pending machine-loss recoveries.
//
//dbtf:allow-unguarded st: all workers are joined before endStage runs, so st is no longer shared
func (c *Cluster) endStage(st *stageState, ok bool) {
	// All workers are joined; st is no longer shared.
	var makespan, taskSum int64
	for _, m := range st.perMachine {
		taskSum += m
		if m > makespan {
			makespan = m
		}
	}
	c.mu.Lock()
	dShuffled := c.st.ShuffledBytes - c.lastShuffled
	dBroadcast := c.st.BroadcastBytes - c.lastBroadcast
	dCollected := c.st.CollectedBytes - c.lastCollected
	dCheckpoint := c.st.CheckpointBytes - c.lastCheckpoint
	c.lastShuffled += dShuffled
	c.lastBroadcast += dBroadcast
	c.lastCollected += dCollected
	c.lastCheckpoint += dCheckpoint
	net := c.networkNanos(dShuffled, dBroadcast, dCollected) + c.recoveryNanos
	c.recoveryNanos = 0
	c.st.Retries += st.retries
	c.st.InjectedFaults += st.injected
	c.st.TaskNanos += taskSum
	c.st.ComputeNanos += makespan
	c.st.NetworkNanos += net
	c.simNanos += makespan + net
	var absorbed int64
	if ok && c.pendingRecoveries > 0 {
		absorbed = c.pendingRecoveries
		c.st.Recoveries += absorbed
		c.pendingRecoveries = 0
	}
	simAfter := c.simNanos
	c.mu.Unlock()
	if c.tracer.Enabled() {
		ev := trace.NewEvent(trace.StageEnd)
		ev.Stage, ev.Name, ev.SimNanos = st.stage, st.label, simAfter
		ev.DurNanos = makespan + net
		ev.Delta = &trace.StatsDelta{
			ShuffledBytes:   dShuffled,
			BroadcastBytes:  dBroadcast,
			CollectedBytes:  dCollected,
			CheckpointBytes: dCheckpoint,
			ComputeNanos:    makespan,
			NetworkNanos:    net,
			TaskNanos:       taskSum,
			Retries:         st.retries,
			InjectedFaults:  st.injected,
			Recoveries:      absorbed,
		}
		ev.PerMachineNanos = append([]int64(nil), st.perMachine...)
		c.tracer.Emit(ev)
	}
}

// ForEachNamed runs n tasks as one parallel stage. Task t is logically
// placed on machine t mod M, reassigned to a survivor while that machine is
// lost (see MachineFor). Real execution is bounded by the configured
// parallelism: the stage runs on min(parallelism, n) lanes, each a goroutine
// that takes task indices until they run out.
//
// A lane starts without a closure: ForEachNamed starts runLane, which takes
// no argument, and then sends the stage on laneHandoff. One receiver is
// started per send, so every send finds its receiver; a lane goroutine
// exits when the lane it took is done, and no lane goroutine exists while
// no stage is in flight. Lanes of concurrent stages may take each other's
// sends, which changes nothing: each runs the lane of the stage it took.
//
// The label names the stage's span on the trace and is attached as the
// "stage" pprof label to every lane, so CPU profiles attribute kernel time
// to the factor update (or other) stage that spent it. An empty name traces
// as a numbered anonymous stage.
//
// Task errors and recovered panics are treated as transient machine
// failures: the task is re-executed up to maxAttempts times, and only a task
// exhausting every attempt aborts the stage — its last error, wrapped with
// the attempt count and the stage label, is returned and remaining queued
// tasks are skipped. A configured FaultPlan injects additional deterministic
// failures, panics, and machine losses (applied at the stage boundary). No
// goroutine outlives the stage.
//
// Cancellation of ctx is observed between task launches and between retry
// attempts: no new work starts after ctx is done, in-flight tasks run to
// completion, and ctx.Err() is returned.
//
// The simulated clock advances by the stage makespan: the maximum over
// machines of the summed durations of the machine's tasks — including
// wasted attempts, the scheduling round each relaunch waits for, and
// recovery transfers after machine losses — plus the network cost of traffic
// recorded since the previous stage boundary.
func (c *Cluster) ForEachNamed(ctx context.Context, name string, n int, fn func(task int) error) error {
	if n < 0 {
		panic("cluster: negative task count")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	st := c.beginStage(ctx, name, n, fn)
	defer releaseStage(st)
	if name == "" {
		name = fmt.Sprintf("stage %d", st.stage)
	}
	// The "stage" label merged with any labels the caller attached to ctx
	// (the decomposition driver sets "iteration" and "mode"), so profiles
	// slice by stage × mode × iteration. Every lane adopts it; the lanes end
	// with the stage, so there is no label set to restore.
	st.ctx = labelledContext(ctx, name)
	lanes := min(c.parallelism, n)
	st.wg.Add(lanes)
	for range lanes {
		go runLane()
		//dbtf:blocking one runLane is started per send and takes exactly one, so every send has a receiver
		laneHandoff <- st
	}
	st.wg.Wait()

	err := st.firstErr
	if err != nil {
		// A task failure — including a recovered panic — surfaces as an
		// error naming the stage; it never crashes the coordinator.
		err = stageError(name, err)
	}
	c.endStage(st, err == nil)
	return err
}

// labelledContext returns ctx with the "stage" pprof label set to name:
// ctx itself when it carries that label already. A caller that runs many
// stages of one name derives the context once and passes it to each (the
// decomposition driver does, per factor update); pprof.WithLabels would
// merge the whole label set anew on every call.
func labelledContext(ctx context.Context, name string) context.Context {
	if v, ok := pprof.Label(ctx, "stage"); ok && v == name {
		return ctx
	}
	return pprof.WithLabels(ctx, pprof.Labels("stage", name))
}

// laneHandoff hands each lane goroutine the stage it serves; see
// ForEachNamed for the one-receiver-per-send rule that keeps every send
// and every receive paired.
var laneHandoff = make(chan *stageState)

// runLane is one lane of a simulated stage. It is a function of no
// arguments so that starting it allocates nothing; the stage arrives on
// laneHandoff.
func runLane() {
	st := <-laneHandoff
	defer st.wg.Done()
	st.runTasks()
}

// runTasks runs a lane: it takes task indices until they run out, the stage
// fails or its context is done.
func (st *stageState) runTasks() {
	c := st.c
	pprof.SetGoroutineLabels(st.ctx)
	for {
		t := int(st.next.Add(1)) - 1
		if t >= st.n || st.failed.Load() {
			return
		}
		if err := st.ctx.Err(); err != nil {
			st.fail(err)
			return
		}
		assigned := c.MachineFor(t)
		if c.gate != nil {
			// Host-CPU admission across clusters; the wait is real-host
			// contention, never simulated time.
			if err := c.gate.acquire(st.ctx); err != nil {
				st.fail(err)
				return
			}
		}
		simNanos, err := c.runAttempts(st, t, assigned)
		if c.gate != nil {
			c.gate.release()
		}
		st.charge(assigned, simNanos)
		if err != nil {
			st.fail(err)
			return
		}
	}
}

// runAttempts executes task t until one attempt succeeds or maxAttempts are
// spent, returning the simulated nanos charged to the task's machine: every
// attempt's measured duration (wasted attempts included) plus, per relaunch,
// one LatencyPerStage — the scheduling round at which Spark re-offers a
// failed task, the one round-trip price the network model already has.
func (c *Cluster) runAttempts(st *stageState, t, assigned int) (int64, error) {
	var sim int64
	for attempt := 0; ; attempt++ {
		fault := faultNone
		if c.faults != nil {
			fault = c.faults.draw(st.stage, t, attempt, attempt == maxAttempts-1)
		}
		start := c.now()
		var err error
		if fault == faultPanic {
			// The attempt crashes before the user task runs; the recover
			// path turns the crash into a transient error.
			err = runTask(func(int) error {
				panic(fmt.Sprintf("injected fault (stage %d, attempt %d)", st.stage, attempt))
			}, t)
		} else {
			err = runTask(st.fn, t)
		}
		sim += c.now().Sub(start).Nanoseconds()
		if fault != faultNone {
			st.bump(&st.injected)
			if err == nil {
				// faultFail: the machine is lost after the attempt ran, its
				// work discarded but its duration spent.
				err = fmt.Errorf("cluster: injected failure of task %d (stage %d, attempt %d)", t, st.stage, attempt)
			}
		}
		if err == nil {
			return sim, nil
		}
		if attempt+1 >= maxAttempts {
			return sim, fmt.Errorf("cluster: task %d failed after %d attempts: %w", t, maxAttempts, err)
		}
		if cerr := st.ctx.Err(); cerr != nil {
			return sim, cerr
		}
		st.bump(&st.retries)
		c.emitRetry(st, assigned, t, attempt+1)
		sim += c.network.LatencyPerStage.Nanoseconds()
	}
}

// emitRetry publishes an in-stage point event from the task's own
// goroutine; attempt is the 1-based attempt that failed. A marker, not a
// counter: the count folds from the owning stage_end delta, published at
// the boundary.
func (c *Cluster) emitRetry(st *stageState, machine, task, attempt int) {
	if !c.tracer.Enabled() {
		return
	}
	ev := trace.NewEvent(trace.Retry)
	ev.Stage, ev.Machine, ev.Task, ev.Attempt = st.stage, machine, task, attempt
	ev.SimNanos = st.beginSim
	c.tracer.Emit(ev)
}

func (c *Cluster) networkNanos(shuffled, broadcast, collected int64) int64 {
	nanos := c.network.LatencyPerStage.Nanoseconds()
	if c.network.BytesPerSecond > 0 {
		// Shuffle and broadcast land on M machines' links in parallel;
		// collection funnels into the driver's one downlink.
		parallel := float64(shuffled+broadcast) / (c.network.BytesPerSecond * float64(c.machines))
		funnel := float64(collected) / c.network.BytesPerSecond
		nanos += int64((parallel + funnel) * 1e9)
	}
	return nanos
}

func runTask(fn func(int) error, t int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cluster: task %d panicked: %v", t, r)
		}
	}()
	return fn(t)
}

// DriverNamed runs a sequential driver-side section, labelled name on the
// trace, and charges its measured duration to the simulated clock. Column
// commits in DBTF — collecting the per-partition errors and deciding each
// entry — are driver work. A done context skips the section and returns its
// error, so cancellation is observed at every stage boundary.
//
// A context cancelled while fn runs does not lose the section: the work
// was done and is recorded (clock charge and trace span) before the
// cancellation is propagated, so a cancelled resume never reports a clean
// exit over half-accounted books.
func (c *Cluster) DriverNamed(ctx context.Context, name string, fn func()) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	var simBefore int64
	if c.tracer.Enabled() {
		c.mu.Lock()
		simBefore = c.simNanos
		c.mu.Unlock()
		ev := trace.NewEvent(trace.DriverBegin)
		ev.Name, ev.SimNanos = name, simBefore
		c.tracer.Emit(ev)
	}
	start := c.now()
	fn()
	dur := c.now().Sub(start).Nanoseconds()
	c.mu.Lock()
	c.simNanos += dur
	c.st.DriverNanos += dur
	simAfter := c.simNanos
	c.mu.Unlock()
	if c.tracer.Enabled() {
		ev := trace.NewEvent(trace.DriverEnd)
		ev.Name, ev.SimNanos, ev.DurNanos = name, simAfter, dur
		c.tracer.Emit(ev)
	}
	if ctx != nil {
		// Re-check after fn: a section interrupted by cancellation is
		// recorded above, then the cancellation propagates.
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// SimElapsed returns the simulated elapsed time on M machines.
func (c *Cluster) SimElapsed() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Duration(c.simNanos)
}

// ResetClock zeroes the simulated clock and stage-traffic snapshots but
// keeps the traffic counters and the machine liveness state. Used between
// timed experiment phases. Every traffic class is re-baselined — including
// checkpoint bytes and pending recovery transfer time — so a timed phase
// never pays for (or attributes) traffic recorded before the reset.
func (c *Cluster) ResetClock() {
	c.mu.Lock()
	c.simNanos = 0
	c.st.ComputeNanos, c.st.NetworkNanos, c.st.DriverNanos, c.st.TaskNanos = 0, 0, 0, 0
	c.lastShuffled = c.st.ShuffledBytes
	c.lastBroadcast = c.st.BroadcastBytes
	c.lastCollected = c.st.CollectedBytes
	c.lastCheckpoint = c.st.CheckpointBytes
	c.recoveryNanos = 0
	c.mu.Unlock()
}

// Package trace is the structured tracing layer of the simulated cluster:
// the equivalent of Spark's stage/task event log for the engine in
// internal/cluster. Every stage, driver section, traffic charge, retry,
// machine loss/recovery, checkpoint, and algorithm iteration emits one
// Event carrying both clocks — the wall clock (real elapsed
// time, for profiling the host) and the simulated clock (modeled elapsed
// time on M machines, for the paper's makespan claims) — so a run can be
// replayed as a per-machine timeline after the fact.
//
// Events are written through a Sink. Two sinks ship with the package:
// JSONL (one JSON object per line, the durable analysis format validated
// by cmd/dbtf-tracecheck) and Chrome (the trace_event format loadable in
// chrome://tracing or Perfetto, with one lane per simulated machine).
//
// The accounting contract that makes the stream checkable: every mutation
// of cluster.Stats is attributed to exactly one event, so folding a run's
// events with StatsDelta.Observe reproduces the final Stats snapshot
// exactly. See Observe for the per-type attribution rules.
//
// A nil *Tracer is the disabled tracer: Enabled reports false and Emit is
// never reached, so instrumented code pays a nil check and nothing else.
package trace

import (
	"slices"
	"sync"
	"time"
)

// Type identifies an event kind. The set is closed: validators reject
// unknown types.
type Type string

// Event types. Begin/end pairs delimit spans; the rest are point events.
const (
	// RunBegin and RunEnd delimit one decomposition run. RunEnd carries
	// the run's final cumulative Stats snapshot in Delta, which must
	// equal the fold of every event since the matching RunBegin.
	RunBegin Type = "run_begin"
	RunEnd   Type = "run_end"
	// IterationBegin and IterationEnd delimit one alternating iteration;
	// IterationEnd carries the reconstruction error and its improvement
	// over the previous iteration.
	IterationBegin Type = "iteration_begin"
	IterationEnd   Type = "iteration_end"
	// StageBegin and StageEnd delimit one parallel ForEach stage.
	// StageEnd carries the per-stage Stats delta and the per-machine
	// simulated compute nanos (the stage's lane lengths).
	StageBegin Type = "stage_begin"
	StageEnd   Type = "stage_end"
	// DriverBegin and DriverEnd delimit one sequential driver section.
	DriverBegin Type = "driver_begin"
	DriverEnd   Type = "driver_end"
	// Shuffle, Broadcast, Collect and Checkpoint record one traffic
	// charge each; Bytes is the exact amount added to the corresponding
	// Stats counter (for Broadcast: already multiplied by the machine
	// count, as the counter records it).
	Shuffle    Type = "shuffle"
	Broadcast  Type = "broadcast"
	Collect    Type = "collect"
	Checkpoint Type = "checkpoint"
	// Retry marks one task re-execution after a transient failure.
	Retry Type = "retry"
	// MachineLoss and MachineRejoin mark machine liveness transitions at
	// stage boundaries; Bytes is the recovery re-fetch traffic charged to
	// BroadcastBytes (a single-link transfer, not multiplied by M).
	MachineLoss   Type = "machine_loss"
	MachineRejoin Type = "machine_rejoin"
	// Wire records real socket traffic of a remote transport: Bytes is
	// the sent-plus-received wire volume of one stage (Stage, Name set)
	// or state push (Stage -1). Wire bytes are measurements of the
	// physical backend, not part of the modeled traffic accounting, so
	// Observe does not fold them and validators place no structural
	// constraints on them.
	Wire Type = "wire"
)

// Event is one entry of the run trace. Field applicability depends on
// Type; inapplicable index fields hold -1 (Stage, Machine, Task) or 0
// (Iteration — iterations are 1-based) and inapplicable value fields are
// omitted from the JSON encoding.
type Event struct {
	Type Type `json:"type"`
	// Seq is the tracer-assigned sequence number: strictly increasing
	// across the stream, making the total emission order explicit even
	// when events share timestamps.
	Seq int64 `json:"seq"`
	// WallNanos is the wall-clock timestamp (UnixNano of the tracer's
	// clock), assigned at emission. Wall timestamps are reporting only:
	// they are not deterministic across runs.
	WallNanos int64 `json:"wall_ns"`
	// SimNanos is the simulated clock at the event. The in-stage event
	// (Retry) carries the stage's begin time: the simulated clock advances
	// only at stage boundaries.
	// Deterministic per seed when the engine's clock is injected.
	SimNanos int64 `json:"sim_ns"`
	// Stage is the cluster-wide stage index for stage-scoped events;
	// -1 otherwise.
	Stage int64 `json:"stage"`
	// Machine is the logical machine for machine-scoped events
	// (loss/rejoin, retry); -1 otherwise.
	Machine int `json:"machine"`
	// Task is the task index for task-scoped events; -1 otherwise.
	Task int `json:"task"`
	// Iteration is the 1-based algorithm iteration for iteration spans,
	// and on the RunBegin of a run resumed from a checkpoint the last
	// iteration that checkpoint completed; 0 otherwise.
	Iteration int `json:"iteration,omitempty"`
	// Name labels spans: the stage or driver-section label, or the run
	// description.
	Name string `json:"name,omitempty"`
	// Tasks is the task count of a StageBegin.
	Tasks int `json:"tasks,omitempty"`
	// Machines is the cluster size, carried by RunBegin.
	Machines int `json:"machines,omitempty"`
	// Attempt is the 1-based attempt that failed, on a Retry.
	Attempt int `json:"attempt,omitempty"`
	// Bytes is the traffic amount of Shuffle/Broadcast/Collect/Checkpoint
	// charges and the recovery re-fetch of MachineLoss/MachineRejoin.
	Bytes int64 `json:"bytes,omitempty"`
	// DurNanos is the span's simulated duration, on end events: for
	// StageEnd the makespan plus network charge, for DriverEnd the
	// section's measured duration.
	DurNanos int64 `json:"dur_ns,omitempty"`
	// Error is the reconstruction error after an IterationEnd, or at the
	// checkpoint a resumed run's RunBegin continues from.
	Error *int64 `json:"error,omitempty"`
	// ErrorDelta is the error improvement over the previous iteration on
	// an IterationEnd (0 on the first iteration).
	ErrorDelta *int64 `json:"error_delta,omitempty"`
	// Flips is the number of factor entries the iteration's column commits
	// changed, on an IterationEnd (in iteration 1, those of the initial set
	// that was kept). An iteration that flips nothing cannot have moved the
	// error: Validate holds ErrorDelta to 0 there.
	Flips *int64 `json:"flips,omitempty"`
	// Delta is the per-stage Stats delta on StageEnd, and the final
	// cumulative Stats snapshot on RunEnd.
	Delta *StatsDelta `json:"delta,omitempty"`
	// PerMachineNanos is the per-machine simulated compute time of a
	// StageEnd: index m is the summed task nanos charged to machine m
	// (the stage's makespan is the maximum entry).
	PerMachineNanos []int64 `json:"per_machine_ns,omitempty"`
}

// NewEvent returns an event of the given type with the index fields set
// to their inapplicable defaults.
func NewEvent(typ Type) *Event {
	return &Event{Type: typ, Stage: -1, Machine: -1, Task: -1}
}

// StatsDelta is the one declaration of the cluster's traffic and
// execution counters; cluster.Stats is an alias of it. It serves three
// roles: the cumulative snapshot Cluster.Stats returns, the per-stage
// delta attached to StageEnd events, and the accumulator that folds an
// event stream back into a snapshot (Observe).
type StatsDelta struct {
	// ShuffledBytes is data repartitioned across machines: the one-off
	// distribution of unfolded tensor partitions (Lemma 6) plus
	// partitions re-shipped to survivors after machine losses.
	ShuffledBytes int64 `json:"shuffled_bytes,omitempty"`
	// BroadcastBytes is data sent from the driver to every machine (Lemma
	// 7): the factor matrices at each install — the initial sets, a kept
	// set, a resumed checkpoint — and the body of each stage's push of the
	// entries its commit flipped. Recorded already
	// multiplied by the machine count. Recovery re-broadcasts (a single
	// machine re-fetching the working set after a loss or rejoin) are
	// added once, not multiplied.
	BroadcastBytes int64 `json:"broadcast_bytes,omitempty"`
	// CollectedBytes is data returned from partitions to the driver: the
	// per-column error vectors (Lemma 7).
	CollectedBytes int64 `json:"collected_bytes,omitempty"`
	// CheckpointBytes is the total size of durable iteration checkpoints
	// written by the driver (see Cluster.RecordCheckpoint).
	CheckpointBytes int64 `json:"checkpoint_bytes,omitempty"`
	// Stages is the number of parallel stages executed.
	Stages int64 `json:"stages,omitempty"`
	// Tasks is the number of tasks executed across all stages.
	Tasks int64 `json:"tasks,omitempty"`
	// ComputeNanos, NetworkNanos and DriverNanos break the simulated
	// elapsed time into stage makespans, modeled communication, and
	// driver-side sequential sections.
	ComputeNanos int64 `json:"compute_ns,omitempty"`
	NetworkNanos int64 `json:"network_ns,omitempty"`
	DriverNanos  int64 `json:"driver_ns,omitempty"`
	// TaskNanos is the summed duration of all tasks; ComputeNanos −
	// TaskNanos/Machines measures load imbalance.
	TaskNanos int64 `json:"task_ns,omitempty"`
	// Retries is the number of task re-executions after transient
	// failures (real errors, recovered panics, or injected faults).
	Retries int64 `json:"retries,omitempty"`
	// InjectedFaults is the number of task-level failures and panics
	// injected by the configured FaultPlan. Machine losses are counted
	// separately in MachineLosses.
	InjectedFaults int64 `json:"injected_faults,omitempty"`
	// MachineLosses is the number of machine-loss events injected by the
	// FaultPlan (seeded draws plus explicit MachineKills).
	MachineLosses int64 `json:"machine_losses,omitempty"`
	// Recoveries counts completed recovery events: a lost machine's
	// reassigned work finishing its stage successfully (one per loss),
	// and a dead machine rejoining service.
	Recoveries int64 `json:"recoveries,omitempty"`
}

// Observe folds one event into the accumulator under the attribution
// contract: every cluster.Stats mutation belongs to exactly one event, so
// folding a complete run reproduces the final snapshot exactly.
//
//   - StageBegin carries the stage and task counts.
//   - StageEnd's Delta carries the stage's time and fault counters. Its
//     byte fields are NOT folded: they record which traffic this stage's
//     network charge priced (recorded since the previous stage boundary),
//     and that traffic is already attributed to its own charge events.
//   - DriverEnd carries the section's driver nanos.
//   - Traffic events carry their exact counter increments, including the
//     single-link recovery re-fetches on MachineLoss/MachineRejoin.
//   - Retry point events are markers only; their count folds from the
//     owning StageEnd delta, which publishes it at the stage boundary
//     exactly as the engine publishes the counter itself.
func (d *StatsDelta) Observe(ev *Event) {
	switch ev.Type {
	case StageBegin:
		d.Stages++
		d.Tasks += int64(ev.Tasks)
	case StageEnd:
		if ev.Delta != nil {
			d.ComputeNanos += ev.Delta.ComputeNanos
			d.NetworkNanos += ev.Delta.NetworkNanos
			d.TaskNanos += ev.Delta.TaskNanos
			d.Retries += ev.Delta.Retries
			d.InjectedFaults += ev.Delta.InjectedFaults
			d.Recoveries += ev.Delta.Recoveries
		}
	case DriverEnd:
		d.DriverNanos += ev.DurNanos
	case Shuffle:
		d.ShuffledBytes += ev.Bytes
	case Broadcast:
		d.BroadcastBytes += ev.Bytes
	case Collect:
		d.CollectedBytes += ev.Bytes
	case Checkpoint:
		d.CheckpointBytes += ev.Bytes
	case MachineLoss:
		d.MachineLosses++
		d.BroadcastBytes += ev.Bytes
	case MachineRejoin:
		d.Recoveries++
		d.BroadcastBytes += ev.Bytes
	}
}

// Buffer is an in-memory sink retaining events in emission order, for
// programmatic inspection of a run's stream (tests, adaptive tooling).
type Buffer struct {
	Events []*Event
}

// Write retains the event.
func (b *Buffer) Write(ev *Event) error {
	b.Events = append(b.Events, ev)
	return nil
}

// Close is a no-op; the events stay available.
func (b *Buffer) Close() error { return nil }

// Sub returns the field-wise difference d − o: the counters accumulated
// between two snapshots.
func (d StatsDelta) Sub(o StatsDelta) StatsDelta {
	return StatsDelta{
		ShuffledBytes:   d.ShuffledBytes - o.ShuffledBytes,
		BroadcastBytes:  d.BroadcastBytes - o.BroadcastBytes,
		CollectedBytes:  d.CollectedBytes - o.CollectedBytes,
		CheckpointBytes: d.CheckpointBytes - o.CheckpointBytes,
		Stages:          d.Stages - o.Stages,
		Tasks:           d.Tasks - o.Tasks,
		ComputeNanos:    d.ComputeNanos - o.ComputeNanos,
		NetworkNanos:    d.NetworkNanos - o.NetworkNanos,
		DriverNanos:     d.DriverNanos - o.DriverNanos,
		TaskNanos:       d.TaskNanos - o.TaskNanos,
		Retries:         d.Retries - o.Retries,
		InjectedFaults:  d.InjectedFaults - o.InjectedFaults,
		MachineLosses:   d.MachineLosses - o.MachineLosses,
		Recoveries:      d.Recoveries - o.Recoveries,
	}
}

// Sink receives the event stream. Sinks are always called from one
// goroutine at a time (the tracer serializes emission under its lock), so
// implementations need no internal locking. Each event a sink receives is
// its own, shared with no emitter or other sink, and it may keep it — unless
// the sink borrows (see borrower).
type Sink interface {
	Write(ev *Event) error
	// Close flushes and releases the sink. The tracer calls it from
	// Tracer.Close exactly once.
	Close() error
}

// borrower is a Sink that is done with each event, and all it points at,
// when Write returns. Its Borrows method reports so, and New asks it once:
// the tracer then writes every event from one Event of its own, where any
// other sink gets a deep copy it may keep.
type borrower interface {
	Borrows() bool
}

// borrows reports whether s is done with each event when Write returns.
func borrows(s Sink) bool {
	b, ok := s.(borrower)
	return ok && b.Borrows()
}

// Tracer serializes events from concurrent emitters into a Sink,
// assigning sequence numbers and wall timestamps. The zero-cost disabled
// form is a nil *Tracer: all methods are nil-safe, and instrumented code
// guards event construction behind Enabled.
type Tracer struct {
	mu sync.Mutex
	//dbtf:guardedby mu
	sink Sink
	//dbtf:guardedby mu
	seq int64
	//dbtf:guardedby mu
	err error
	//dbtf:guardedby mu
	closed bool
	// scratch is the one event a borrowing sink is written from.
	//dbtf:guardedby mu
	scratch Event
	// now supplies wall timestamps; injectable for deterministic golden
	// tests. borrows records whether the sink borrows. Both are immutable
	// after New.
	now     func() time.Time
	borrows bool
}

// Option configures a Tracer.
type Option func(*Tracer)

// WithClock replaces the wall clock used to timestamp events. Tests
// inject a deterministic clock to make full event streams reproducible.
func WithClock(now func() time.Time) Option {
	return func(t *Tracer) { t.now = now }
}

// New returns a tracer writing to sink. A nil sink yields a nil (i.e.
// disabled) tracer.
func New(sink Sink, opts ...Option) *Tracer {
	if sink == nil {
		return nil
	}
	t := &Tracer{sink: sink, now: time.Now, borrows: borrows(sink)}
	for _, o := range opts {
		o(t)
	}
	return t
}

// Enabled reports whether events should be constructed and emitted. It is
// the fast path of the disabled tracer: nil receivers return false.
func (t *Tracer) Enabled() bool { return t != nil }

// Emit copies the event, assigns the copy's sequence number and wall
// timestamp and writes it to the sink. Emit reads ev and what it points at
// only while it runs, so the caller may reuse all of it afterwards.
// Emission is serialized: concurrent emitters never interleave inside the
// sink, and the stream's Seq order is the emission order. Emit on a nil or
// closed tracer is a no-op. The first sink error is retained (see Err);
// later writes are dropped.
func (t *Tracer) Emit(ev *Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed || t.err != nil {
		return
	}
	out := &t.scratch
	if t.borrows {
		*out = *ev
	} else {
		out = ev.clone()
	}
	out.Seq = t.seq
	t.seq++
	if out.WallNanos == 0 {
		out.WallNanos = t.now().UnixNano()
	}
	if err := t.sink.Write(out); err != nil {
		t.err = err
	}
}

// clone returns a deep copy of ev, which shares no memory with it.
func (ev *Event) clone() *Event {
	c := *ev
	c.Error, c.ErrorDelta, c.Flips = clonePtr(ev.Error), clonePtr(ev.ErrorDelta), clonePtr(ev.Flips)
	c.Delta, c.PerMachineNanos = clonePtr(ev.Delta), slices.Clone(ev.PerMachineNanos)
	return &c
}

func clonePtr[T any](p *T) *T {
	if p == nil {
		return nil
	}
	v := *p
	return &v
}

// Err returns the first sink error, if any.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Close closes the sink and returns the first error seen on the stream
// (a retained write error takes precedence over the close error). Close
// on a nil tracer is a no-op; further Emits after Close are dropped.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return t.err
	}
	t.closed = true
	if err := t.sink.Close(); err != nil && t.err == nil {
		t.err = err
	}
	return t.err
}

// Package transport defines the seam between the cluster engine and a
// real distributed substrate. The engine in internal/cluster executes
// stages either on its simulated in-process machines (the default, and
// the deterministic oracle) or — when a Transport is configured — by
// shipping stage descriptors to remote executors over a wire protocol.
//
// The split mirrors a classic driver/executor design (Spark's, which the
// paper's DBTF runs on): the coordinator keeps the whole algorithm —
// control flow, RNG, column commits, checkpointing — and remote machines
// are stage servers holding state (their share of the partitioned
// unfoldings, the current factor matrices) that execute named stage kinds
// against it. Because the executors run the byte-identical kernels on
// byte-identical state, a run over any Transport must produce factors
// bit-identical to the simulated engine's for the same seed; the
// differential tests enforce exactly that.
//
// The package holds the interfaces and the length-prefixed binary frame
// codec (wire.go); the TCP implementation lives in transport/tcp.
package transport

import "context"

// Kind names a remote stage's computation. The set is closed: executors
// reject unknown kinds.
type Kind uint8

const (
	// KindEval evaluates one stage of a factor update — three columns, or
	// the one or two a rank ends on — on one partition, returning the
	// per-row error deltas of each. The executor builds the partition's column-update
	// task (cache tables, buffers) the first time it is asked for a column
	// after a factor push.
	KindEval Kind = iota + 1
	// KindTotalError computes one mode-1 partition's share of the total
	// reconstruction error.
	KindTotalError
)

// String returns the kind's name, which names its stages.
func (k Kind) String() string {
	switch k {
	case KindEval:
		return "eval"
	case KindTotalError:
		return "total-error"
	}
	return "unknown"
}

// Spec describes one remote stage: what to run, not how. Tasks index
// partitions; the executor resolves everything else from its replicated
// state.
type Spec struct {
	// Kind selects the computation.
	Kind Kind
	// Mode is the factor update's mode index (0=A, 1=B, 2=C) for KindEval;
	// unused for KindTotalError.
	Mode int
	// Col is the first column of the stage for KindEval: the executor
	// evaluates it and, unless it is the factor's last, the one after it.
	Col int
	// Tasks is the number of tasks (partitions) in the stage.
	Tasks int
}

// StateKind names a replicated-state push from the coordinator to every
// executor.
type StateKind uint8

const (
	// StateSetup ships an executor its share of the run's immutable inputs:
	// the decomposition options and the partitions homed on its machine.
	// It resets the executor, and is replayed when a lost machine rejoins.
	StateSetup StateKind = iota + 1
	// StateFactors installs the three factor matrices — the broadcast
	// working set — when the coordinator's change: each initial set, a kept
	// set, a resumed checkpoint. It invalidates executor-side column tasks
	// and caches built over the matrices it replaces.
	StateFactors
	// StateColumn toggles, in place, the entries of one factor matrix that
	// one eval stage's commit flipped, keeping executor state identical to
	// the coordinator's between installs. A commit that flips nothing
	// pushes nothing.
	StateColumn
	// StateReship ships an executor another machine's set-up blob, whose
	// partitions it adds to its own: the re-shipped partitions of the
	// recovery protocol, sent with the first batch of a lost machine's
	// tasks routed to it.
	StateReship
)

// String returns the state kind's name.
func (k StateKind) String() string {
	switch k {
	case StateSetup:
		return "setup"
	case StateFactors:
		return "factors"
	case StateColumn:
		return "column"
	case StateReship:
		return "reship"
	}
	return "unknown"
}

// TaskResult is one completed remote task: which machine ran it, the
// measured execution nanos (charged to the simulated clock exactly like a
// local task's duration), and the task's output payload. The payload is a
// slice of the transport's read buffer: it is valid during the deliver call
// it is handed to and not after.
type TaskResult struct {
	Task    int
	Machine int
	Nanos   int64
	Payload []byte
}

// LivenessEvent is one machine liveness transition observed by the
// transport: Up=false when a connection was declared dead (the machine is
// lost), Up=true when a dead machine was redialed and replayed back into
// service (the machine rejoined).
type LivenessEvent struct {
	Machine int
	Up      bool
}

// Transport executes remote stages for the cluster engine. Implementations
// own connection management and failure detection; the engine owns all
// accounting. The engine calls Membership at every remote stage boundary
// and applies the reported transitions to its liveness books (trace
// events, loss handlers, recovery charges) before opening the stage —
// matching the simulated engine's rule that machines are lost and rejoin
// only at stage boundaries.
//
// A blob handed to PushSetup or PushState is the transport's from then on:
// the caller must not read, write or hand it on again, so that the
// transport may return it to the slab pool (slab.PutBytes) once nothing
// reads it — the TCP coordinator does at Close.
type Transport interface {
	// Machines returns the executor count M; must equal the cluster's.
	Machines() int
	// Membership attempts to redial dead machines and replay their state,
	// and returns the liveness transitions since the previous call, in
	// detection order. Losses are detected where they hurt — by the Run
	// or PushState exchange that hit the dead connection — and reported
	// here; Membership itself does not probe live machines.
	Membership(ctx context.Context) []LivenessEvent
	// PushSetup starts a run's state over: machine m's executor gets
	// setup[m] as a StateSetup, and while machine h is down, the executor
	// its batches are routed to gets setup[h] as a StateReship with the
	// first of them. It is shipped at once, so a fleet that cannot set up
	// fails here, before the first stage; it fails when an executor rejects
	// its blob or no live executor remains. A machine that misses it
	// because its connection died gets it replayed when it rejoins.
	PushSetup(ctx context.Context, setup [][]byte) error
	// PushState replicates one StateFactors or StateColumn blob to every
	// executor: it is applied, in push order, before any task of a later
	// Run executes. An implementation may ship it at once or with the
	// executor's next request. A machine that misses a push because its
	// connection died is marked down and receives a full replay when it
	// rejoins. A rejected blob fails the Run that carried it.
	PushState(ctx context.Context, kind StateKind, payload []byte) error
	// Run executes the stage: every task in [0, spec.Tasks) runs on its
	// home machine (task mod M) or, while that machine is down, on the
	// next live machine in ring order — the engine's reassignment rule.
	// deliver is called sequentially, once per task, in completion order,
	// and must be done with the result's payload when it returns.
	// A task whose machine dies mid-stage is rerouted and re-executed
	// (tasks are idempotent by the engine's contract); Run fails only
	// when a task has no live machine left or ctx is done.
	Run(ctx context.Context, spec Spec, deliver func(TaskResult) error) error
	// WireBytes returns cumulative bytes written to and read from the
	// real sockets. The engine emits per-stage deltas as trace events;
	// wire bytes are measurements, not part of the modeled traffic
	// accounting.
	WireBytes() (sent, received int64)
	// Close tears down every connection.
	Close() error
}

// Host is the executor side of the protocol: replicated state plus stage
// execution. Implementations must be safe for one request at a time (the
// wire protocol is sequential per connection); the tcp server serializes
// calls per connection, and a request's host calls and reply across
// connections.
//
// Payloads are lent, not given, in both directions, so that neither side
// copies them: what a host is handed is a slice of the server's read
// buffer, and what it returns may be a buffer it keeps.
type Host interface {
	// Apply installs one replicated-state blob. payload is valid during the
	// call: an implementation decodes or copies what it keeps.
	Apply(kind StateKind, payload []byte) error
	// RunBatch executes one stage batch. On success it returns exactly one
	// TaskOutput per requested task, in the order given, each with its own
	// measured nanos. Any task failure fails the whole batch — the
	// all-or-nothing rule the coordinator's rerouting relies on — with an
	// error identifying the failing task; when several tasks fail, the
	// error names the one earliest in the batch order. tasks is valid during
	// the call; the returned slice and every TaskOutput.Payload in it need
	// stay valid only until the host's next call, so a host may reuse them.
	RunBatch(spec Spec, tasks []int) ([]TaskOutput, error)
}

package cluster

import (
	"context"
	"errors"
	"fmt"

	"dbtf/internal/trace"
	"dbtf/internal/transport"
)

// RunStage executes one partition-parallel stage, given as what either
// backend needs of it: the spec, the local kernel, and the decoder of the
// payload every remote task returns. On the simulated backend (the
// default) it is exactly ForEachNamed(spec.Name, spec.Tasks, local): same
// stage numbering, chaos injection, retries, and accounting. On a remote
// transport the stage is shipped as spec, each task's payload is delivered
// to sink (sequentially, in completion order), and the executors' measured
// task nanos are charged to the simulated clock in place of locally
// measured durations. Either way the stage pays the network price of the
// traffic recorded since the previous boundary, so the modeled Stats stay
// backend-independent.
func (c *Cluster) RunStage(ctx context.Context, spec transport.Spec, local func(task int) error, sink func(task int, payload []byte) error) error {
	if c.transport == nil {
		return c.ForEachNamed(ctx, spec.Name, spec.Tasks, local)
	}
	return c.runStageRemote(ctx, spec, sink)
}

// runStageRemote is the transport-backed stage path: liveness transitions
// are collected from the transport and applied at the boundary (exactly
// where the simulated engine applies FaultPlan losses), the stage opens
// and closes through the same beginStage/endStage books as a simulated
// stage, and the stage's real wire traffic is emitted as a trace
// measurement.
func (c *Cluster) runStageRemote(ctx context.Context, spec transport.Spec, sink func(task int, payload []byte) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	c.applyLiveness(c.transport.Membership(ctx))
	st := c.beginStage(ctx, spec.Name, spec.Tasks, nil)
	defer releaseStage(st)
	sentBefore, recvBefore := c.transport.WireBytes()
	err := ctx.Err()
	if err == nil {
		err = c.transport.Run(ctx, spec, func(tr transport.TaskResult) error {
			st.charge(tr.Machine, tr.Nanos)
			return sink(tr.Task, tr.Payload)
		})
	}
	c.endStage(st, err == nil)
	sentAfter, recvAfter := c.transport.WireBytes()
	c.emitWire(spec.Name, st.stage, (sentAfter-sentBefore)+(recvAfter-recvBefore))
	if err != nil {
		return stageError(st.label, err)
	}
	return nil
}

// PushState replicates one state blob to every live remote executor. The
// blob is produced by encode only when there is an executor to ship it to:
// on the simulated backend the "executors" share the coordinator's memory,
// so nothing is encoded and the call is free — which is what lets clients
// replicate state unconditionally instead of asking which backend they are
// on. The wire volume is emitted as a trace measurement; the modeled
// broadcast traffic is recorded separately by the caller through
// Broadcast/BroadcastState, identically on both backends.
func (c *Cluster) PushState(ctx context.Context, kind transport.StateKind, encode func() ([]byte, error)) error {
	if c.transport == nil {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	payload, err := encode()
	if err != nil {
		return fmt.Errorf("cluster: state push %q: %w", kind.String(), err)
	}
	sentBefore, recvBefore := c.transport.WireBytes()
	err = c.transport.PushState(ctx, kind, payload)
	sentAfter, recvAfter := c.transport.WireBytes()
	if c.tracer.Enabled() {
		// The span's name is built for the trace alone: a push with the
		// tracer off allocates nothing here.
		c.emitWire("state:"+kind.String(), -1, (sentAfter-sentBefore)+(recvAfter-recvBefore))
	}
	if err != nil {
		return fmt.Errorf("cluster: state push %q: %w", kind.String(), err)
	}
	return nil
}

// applyLiveness applies transport-observed machine transitions to the
// engine's liveness books, in detection order, through the same
// setLiveLocked/announce pair that applies FaultPlan losses at a simulated
// stage boundary — so a real loss costs, counts and traces exactly like an
// injected one.
func (c *Cluster) applyLiveness(events []transport.LivenessEvent) {
	if len(events) == 0 {
		return
	}
	var applied []transition
	c.mu.Lock()
	stage := c.st.Stages
	recoveryBytes := c.liveBroadcast
	for _, ev := range events {
		// A transport with no live executor fails the next Run; the books
		// keep a survivor regardless (see setLiveLocked).
		if ev.Machine >= 0 && ev.Machine < c.machines && c.setLiveLocked(ev.Machine, ev.Up, stage) {
			applied = append(applied, transition{ev.Machine, ev.Up})
		}
	}
	handler := c.lossHandler
	beginSim := c.simNanos
	c.mu.Unlock()
	c.announce(applied, stage, beginSim, recoveryBytes, handler)
}

// emitWire publishes one real-socket traffic measurement. Wire bytes are
// observations of the physical backend, not modeled traffic: validators
// do not fold them into the Stats contract.
func (c *Cluster) emitWire(name string, stage int64, bytes int64) {
	if bytes <= 0 || !c.tracer.Enabled() {
		return
	}
	c.mu.Lock()
	sim := c.simNanos
	c.mu.Unlock()
	ev := trace.NewEvent(trace.Wire)
	ev.Name, ev.Stage, ev.Bytes, ev.SimNanos = name, stage, bytes, sim
	c.tracer.Emit(ev)
}

// stageError attributes a stage failure to its stage label so a panicking
// or failing task surfaces as "stage X failed because ..." instead of an
// anonymous error. Context cancellation passes through unwrapped: callers
// match it with errors.Is against the context sentinels, and a cancelled
// stage is the caller's doing, not the stage's.
func stageError(label string, err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return fmt.Errorf("cluster: stage %q: %w", label, err)
}

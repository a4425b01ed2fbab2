package core

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"dbtf/internal/transport"
)

// Worker is the executor side of a remote run: the same executor the
// driver runs, spanning the one logical machine this process is, behind a
// lock and the wire codec. It implements transport.Host.
//
// Because the kernels are the driver's own and the state is kept
// entry-identical to the coordinator's by the StateKind pushes, remote
// factors are bit-identical to simulated ones for the same seed.
//
// Concurrency: the wire protocol is one request at a time per
// connection and a stage task runs on one goroutine, so one lock
// serializes everything — state pushes and stage batches alike.
type Worker struct {
	mu sync.Mutex
	// ex is an empty executor until the first StateSetup push: it holds no
	// partitions and no factors, so every stage and column push fails its
	// own address checks instead of needing a "set up yet?" guard here. Its
	// stage span is the one thing a set-up carries over to the next executor.
	//dbtf:guardedby mu
	ex *executor
	// outs is RunBatch's result slice, kept between batches: the transport
	// is done with a batch's outputs before it asks for the next.
	//dbtf:guardedby mu
	outs []transport.TaskOutput
}

// NewWorker returns an empty executor awaiting a StateSetup push.
func NewWorker() *Worker { return &Worker{ex: &executor{span: lookahead}} }

// Apply installs one replicated-state blob (transport.Host).
func (w *Worker) Apply(kind transport.StateKind, payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	switch kind {
	case transport.StateSetup:
		return w.applySetupLocked(payload)
	case transport.StateFactors:
		a, b, c, err := decodeFactors(payload)
		if err != nil {
			return err
		}
		return w.ex.setFactors(a, b, c)
	case transport.StateColumn:
		mode, col, span, rows, bits, err := decodeColumns(payload)
		if err != nil {
			return err
		}
		m := w.ex.f[modeRoles[mode].upd]
		if m == nil {
			return fmt.Errorf("core: worker: column pushed before factors")
		}
		if rows != m.Rows() || col+span > m.Rank() {
			return fmt.Errorf("core: worker: column push %d rows/cols [%d,%d) does not fit %dx%d factor",
				rows, col, col+span, m.Rows(), m.Rank())
		}
		// In place: live column tasks hold pointers to this matrix and must
		// observe the committed entries, exactly as the driver's commit
		// mutates the matrix under its own executor's tasks.
		for j := 0; j < span; j++ {
			for r := 0; r < rows; r++ {
				m.Set(r, col+j, bits[r/8]&(1<<uint(r%8)) != 0)
			}
			bits = bits[(rows+7)/8:]
		}
		return nil
	}
	return fmt.Errorf("core: worker: unknown state kind %d", kind)
}

// applySetupLocked rebuilds the executor from the shipped tensor — the
// worker's share of Algorithm 2's one-off distribution. A replayed setup
// (machine rejoin) resets everything: the process may have restarted and
// holds no usable state. The worker built the partitions it replaces, so it
// releases them.
func (w *Worker) applySetupLocked(payload []byte) error {
	cfg, x, err := decodeSetup(payload)
	if err != nil {
		return err
	}
	w.ex.release()
	releasePartitions(w.ex.px)
	i, j, k := x.Dims()
	w.ex = newExecutor(cfg, [3]int{i, j, k}, 1, func(int) int { return 0 }, w.ex.span)
	return w.ex.setup(x.UnfoldAll(), serially)
}

// serially is executor.setup's each on one machine: a plain loop.
func serially(n int, fn func(m int) error) error {
	for m := 0; m < n; m++ {
		if err := fn(m); err != nil {
			return err
		}
	}
	return nil
}

// RunBatch executes a whole stage batch in batch order (transport.Host).
// Failures follow the Host contract: the batch fails as a whole, naming
// the earliest failing task in batch order. The outputs and their payloads
// are the worker's own buffers, valid until its next call.
func (w *Worker) RunBatch(spec transport.Spec, tasks []int) ([]transport.TaskOutput, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.outs = slices.Grow(w.outs[:0], len(tasks))[:len(tasks)]
	outs := w.outs
	for i, task := range tasks {
		//dbtf:allow-nondeterministic task nanos are wall-clock reporting charged to the simulated ledger, never fed back into results
		start := time.Now()
		payload, err := w.runTaskLocked(spec, task)
		if err != nil {
			return nil, fmt.Errorf("task %d: %w", task, err)
		}
		//dbtf:allow-nondeterministic task nanos are wall-clock reporting charged to the simulated ledger, never fed back into results
		outs[i] = transport.TaskOutput{Task: task, Nanos: time.Since(start).Nanoseconds(), Payload: payload}
	}
	return outs, nil
}

// runTaskLocked executes one stage task. Caller holds the lock.
func (w *Worker) runTaskLocked(spec transport.Spec, task int) ([]byte, error) {
	switch spec.Kind {
	case transport.KindEval:
		deltas, err := w.ex.eval(spec.Mode, task, spec.Col)
		if err != nil {
			return nil, err
		}
		reply := &w.ex.replies[spec.Mode][task]
		*reply = appendReply((*reply)[:0], &w.ex.splits[task], deltas)
		return *reply, nil
	case transport.KindTotalError:
		e, err := w.ex.totalError(task)
		if err != nil {
			return nil, err
		}
		return encodePartial(e), nil
	}
	return nil, fmt.Errorf("core: worker: unknown stage kind %d", spec.Kind)
}

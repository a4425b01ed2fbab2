package core

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"dbtf/internal/partition"
	"dbtf/internal/transport"
)

// Worker is the executor side of a remote run: the same executor the
// driver runs, spanning the one logical machine this process is, behind a
// lock and the wire codec. It implements transport.Host.
//
// Because the kernels are the driver's own and the state is kept
// entry-identical to the coordinator's by the StateKind pushes — an
// install of the factors, then the entries each stage's commit flipped —
// remote factors are bit-identical to simulated ones for the same seed,
// and the worker's cache tables outlive an iteration exactly as the
// driver's do.
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
	// home is the machine the last set-up was for, and sets the
	// partitionings decoded since, by the machine they are homed on: home's
	// own, whose Parts the executor reads, and each re-shipped one, whose
	// partitions were moved into those slots. The worker built them all, so
	// it releases them.
	//dbtf:guardedby mu
	home int
	//dbtf:guardedby mu
	sets map[int][3]*partition.Partitioned
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
	case transport.StateReship:
		return w.applyReshipLocked(payload)
	case transport.StateFactors:
		a, b, c, err := decodeFactors(payload)
		if err != nil {
			return err
		}
		return w.ex.setFactors(a, b, c)
	case transport.StateColumn:
		// In place: live column tasks hold pointers to these matrices and
		// must observe the committed entries, exactly as the driver's
		// commit mutates the matrix under its own executor's tasks.
		return applyFlips(payload, w.ex.f)
	}
	return fmt.Errorf("core: worker: unknown state kind %d", kind)
}

// applySetupLocked replaces the executor with one holding the partitions
// the blob ships — the worker's share of Algorithm 2's one-off
// distribution, decoded straight into its blocks. A replayed setup (machine
// rejoin) resets everything: the process may have restarted and holds no
// usable state.
func (w *Worker) applySetupLocked(payload []byte) error {
	s, err := decodeSetup(payload)
	if err != nil {
		return err
	}
	w.ex.release()
	for _, px := range w.sets {
		releasePartitions(px)
	}
	w.ex = newExecutor(s.cfg, s.dims, 1, func(int) int { return 0 }, w.ex.span)
	w.ex.install(s.px)
	for pi := range w.ex.splits {
		w.ex.splits[pi].keep = true
	}
	w.home, w.sets = s.home, map[int][3]*partition.Partitioned{s.home: s.px}
	return nil
}

// applyReshipLocked adds the partitions of another machine of the run set
// up here, whose batches this worker now runs: the re-shipped partitions of
// the recovery protocol. A machine re-shipped again replaces what it
// shipped before. Each added partition's column task is built anew at its
// first eval, over this machine's caches (see executor.eval).
func (w *Worker) applyReshipLocked(payload []byte) error {
	s, err := decodeSetup(payload)
	if err != nil {
		return err
	}
	if w.sets == nil || s.cfg != w.ex.cfg || s.dims != w.ex.dims || s.home == w.home {
		releasePartitions(s.px)
		return fmt.Errorf("core: worker: partitions of machine %d re-shipped to a worker not set up for them", s.home)
	}
	for m, px := range s.px {
		for pi, part := range px.Parts {
			if part != nil {
				w.ex.px[m].Parts[pi], w.ex.tasks[m][pi] = part, nil
			}
		}
	}
	releasePartitions(w.sets[s.home])
	w.sets[s.home] = s.px
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
		start := time.Now()
		payload, err := w.runTaskLocked(spec, task)
		if err != nil {
			return nil, fmt.Errorf("task %d: %w", task, err)
		}
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

// Package tcp is the multi-process transport backend: each cluster machine
// is a separate OS process (cmd/dbtf-worker) speaking the length-prefixed
// binary protocol of package transport over a TCP connection.
//
// The coordinator side (DialContext) implements transport.Transport for the
// driver; the executor side (Serve) pumps frames into a transport.Host.
// A stage costs one exchange per worker: pushed state is kept in a log,
// and every request carries the part of the log its worker has not
// acknowledged. Failure handling mirrors the simulated engine's recovery
// protocol: a connection error marks the machine down and surfaces as a
// LivenessEvent at the next stage boundary, its queued work reroutes to
// the ring-successor live machine, and a machine that redials starts from
// an empty acknowledgement, so its first request replays the full state
// history (setup, current factors, columns since) before it is reported
// back up.
package tcp

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dbtf/internal/slab"
	"dbtf/internal/transport"
)

// Config configures DialContext.
type Config struct {
	// Addrs lists the worker addresses; machine m is Addrs[m].
	Addrs []string

	// The rest is set by this package's tests only; withDefaults fills in
	// the one value every other caller runs on.

	// dialTimeout bounds each connection attempt: 5s.
	dialTimeout time.Duration
	// callTimeout bounds one request/response exchange and is therefore
	// the loss detector: a worker that does not answer within it is
	// treated as lost. It must cover the slowest single stage batch: 2m.
	callTimeout time.Duration
	// redialBackoff is the minimum interval between reconnection attempts
	// to a down worker: 250ms.
	redialBackoff time.Duration
	// maxFrame bounds frame sizes, sent and accepted:
	// transport.DefaultMaxFrame.
	maxFrame int64
}

func (c Config) withDefaults() Config {
	if c.dialTimeout == 0 {
		c.dialTimeout = 5 * time.Second
	}
	if c.callTimeout == 0 {
		c.callTimeout = 2 * time.Minute
	}
	if c.redialBackoff == 0 {
		c.redialBackoff = 250 * time.Millisecond
	}
	if c.maxFrame == 0 {
		c.maxFrame = transport.DefaultMaxFrame
	}
	return c
}

// errDown distinguishes connection-level failures (reroute the batch,
// report the machine lost) from executor-reported errors (fatal to the
// run, connection still healthy).
var errDown = errors.New("tcp: worker connection down")

// remoteError is an error the executor reported over a healthy
// connection: a failed task or a rejected state blob.
type remoteError struct{ msg string }

func (e *remoteError) Error() string { return e.msg }

// worker is the coordinator's view of one machine.
type worker struct {
	addr string
	mu   sync.Mutex
	// conn is nil while the worker is down.
	conn     net.Conn
	lastDial time.Time
	// acked is the sequence number of the last state-log entry this worker
	// has applied: it advances only on a reply over a healthy connection,
	// and a dropped connection resets it to 0 — a reconnect starts from
	// nothing, which is the whole of the rejoin replay.
	acked uint64
	// holds[h] is set once a reply acknowledges machine h's re-shipped
	// set-up. It is cleared, like acked, when the connection drops and when
	// the worker starts over from its own set-up, and when h rejoins, so
	// that h's next loss ships it again.
	holds []bool
	// The connection's frame codec and request state list, kept so a round
	// trip allocates nothing; used under mu, by request alone. A reply and
	// its payloads live in fr until this worker's next request.
	fw     transport.FrameWriter
	fr     transport.FrameReader
	states []transport.StateBlob
}

// stateLog is what a worker must have applied to be entry-identical to
// the driver: the set-up, the last install of the factors, and the flips
// pushed since that install, each stamped with a sequence number that only
// grows. A set-up drops everything before it and an install drops the
// previous install and its flips. The flips since an install are bounded by
// the objective then: an entry is set only where that lowers |X ⊕ X̂| by at
// least one, and cleared at most once per setting or per entry the install
// set, so they number at most twice that objective plus the installed
// ones, and a push holds at least one.
type stateLog struct {
	mu sync.Mutex
	// setup[h] is machine h's set-up blob, stamped setupSeq; a set-up
	// replaces the slice and never writes it.
	setup    [][]byte              //dbtf:guardedby mu
	setupSeq uint64                //dbtf:guardedby mu
	blobs    []transport.StateBlob //dbtf:guardedby mu
	// seqs[i] stamps blobs[i]; strictly increasing.
	seqs []uint64 //dbtf:guardedby mu
	// head is the newest entry's stamp; 0 before the first push.
	head uint64 //dbtf:guardedby mu
	// owned holds every set-up and install blob pushed, superseded or not:
	// a request in flight may still be encoding one the log dropped, so they
	// all go back to the slab pool together, at release. Flip pushes are
	// left to the collector.
	owned [][]byte //dbtf:guardedby mu
}

// pushSetup starts the log over with a set-up.
func (l *stateLog) pushSetup(setup [][]byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.head++
	l.owned = append(l.owned, setup...)
	l.setup, l.setupSeq = setup, l.head
	l.blobs, l.seqs = nil, nil
}

// push appends one install or push of flips. Dropping superseded
// entries allocates fresh slices instead of reusing the old backing arrays,
// because a request in flight may still be encoding a suffix handed out by
// after.
func (l *stateLog) push(kind transport.StateKind, payload []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if kind == transport.StateFactors {
		l.owned = append(l.owned, payload)
		l.blobs, l.seqs = nil, nil
	}
	l.head++
	l.blobs = append(l.blobs, transport.StateBlob{Kind: kind, Payload: payload})
	l.seqs = append(l.seqs, l.head)
}

// release empties the log and returns every set-up and install blob it
// was given to the slab pool. Nothing may read them any more: the caller
// holds every worker's mutex, under which alone a request takes entries
// from the log.
func (l *stateLog) release() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, b := range l.owned {
		slab.PutBytes(b)
	}
	l.setup, l.setupSeq, l.blobs, l.seqs, l.owned = nil, 0, nil, nil, nil
}

// after returns what a worker that has applied the entries up to acked
// lacks — whether the set-up, and the later entries, oldest first — with
// every machine's set-up blob and the stamp of the newest entry, which is
// what acked becomes once they are applied. Nothing it returns is written
// again.
func (l *stateLog) after(acked uint64) (setup [][]byte, reset bool, blobs []transport.StateBlob, head uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	i := len(l.seqs)
	for i > 0 && l.seqs[i-1] > acked {
		i--
	}
	return l.setup, acked < l.setupSeq, l.blobs[i:len(l.blobs):len(l.blobs)], l.head
}

// Coordinator implements transport.Transport over per-worker TCP
// connections. The driver calls it from one goroutine; internal
// concurrency (parallel stage batches) is confined to Run.
type Coordinator struct {
	cfg     Config
	workers []*worker

	// pmu is a leaf lock (taken under worker.mu, never the other way).
	pmu sync.Mutex
	// pending accumulates liveness transitions detected since the last
	// Membership call, in detection order.
	pending []transport.LivenessEvent
	// conns[m] is workers[m].conn again, or nil once closeConns has closed
	// it: the copy Close and a cancelled run can reach while an exchange in
	// flight holds worker.mu for up to callTimeout.
	conns []net.Conn

	log stateLog

	// Run's own books, kept between stages (Run is called from one
	// goroutine). byHome[h] lists the tasks of a stage of homeTasks tasks
	// whose home is machine h; route[h] is the executor h's batch is sent
	// to this round, or answered once its reply is in. calls[e] is the
	// request slot of executor e, which Run fills before it starts the
	// request and does not touch again until the request has reported (see
	// requests).
	homeTasks int
	byHome    [][]int
	route     []int
	calls     []*call
	// abandoned is set once a cancelled Run or set-up flush let go of its
	// requests: one may still be encoding a blob or using its connection's
	// buffers, so Close returns none of them to the slab pool.
	abandoned atomic.Bool

	sent  atomic.Int64
	recvd atomic.Int64
}

// DialContext connects to every worker and performs the protocol
// handshake. All-or-nothing: if any worker is unreachable the whole dial
// fails, so a run never silently starts degraded. ctx covers the whole
// connect phase — both the TCP connects and the protocol handshakes.
// Cancelling it aborts a dial that would otherwise stall until callTimeout
// on a worker that accepts the connection but never answers the handshake.
func DialContext(ctx context.Context, cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("tcp: no worker addresses")
	}
	n := len(cfg.Addrs)
	c := &Coordinator{cfg: cfg, conns: make([]net.Conn, n), route: make([]int, n)}
	for _, addr := range cfg.Addrs {
		c.workers = append(c.workers, &worker{addr: addr, holds: make([]bool, n)})
	}
	for m, w := range c.workers {
		if err := c.dialWorker(ctx, m, w); err != nil {
			if cerr := c.Close(); cerr != nil {
				return nil, fmt.Errorf("%w (and closing dialed workers: %v)", err, cerr)
			}
			return nil, err
		}
	}
	return c, nil
}

// dialWorker connects and handshakes machine m. Caller must not hold w.mu.
// ctx bounds both the connect and the handshake exchange; the redial path
// passes the stage-boundary ctx so a recovering run stays cancellable.
func (c *Coordinator) dialWorker(ctx context.Context, m int, w *worker) error {
	d := net.Dialer{Timeout: c.cfg.dialTimeout}
	conn, err := d.DialContext(ctx, "tcp", w.addr)
	if err != nil {
		return fmt.Errorf("tcp: dial worker %d (%s): %w", m, w.addr, err)
	}
	hello := &transport.Msg{
		Type:     transport.MsgHello,
		Proto:    transport.ProtoVersion,
		Machine:  m,
		Machines: len(c.workers),
	}
	// The handshake I/O only observes deadlines, not ctx; a watcher closes
	// the connection on cancellation to unblock the exchange immediately.
	stop := make(chan struct{})
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		select {
		case <-ctx.Done():
			// Abandoning the handshake; the close error adds nothing.
			_ = conn.Close()
		case <-stop:
		}
	}()
	// A codec of its own: the worker's belongs to request, under w.mu.
	var fw transport.FrameWriter
	var fr transport.FrameReader
	resp, err := c.exchange(conn, &fw, &fr, hello)
	close(stop)
	// The watcher exits as soon as stop closes (the line above), so this
	// join is bounded by a select already watching ctx.
	<-watched //dbtf:blocking watcher selects on ctx.Done/stop and stop just closed
	if err != nil {
		if ctx.Err() != nil {
			// The watcher already closed the connection.
			return fmt.Errorf("tcp: handshake with worker %d (%s): %w", m, w.addr, ctx.Err())
		}
		if cerr := conn.Close(); cerr != nil {
			err = fmt.Errorf("%w (and closing: %v)", err, cerr)
		}
		return fmt.Errorf("tcp: handshake with worker %d (%s): %w", m, w.addr, err)
	}
	if resp.Type != transport.MsgHelloOK {
		if cerr := conn.Close(); cerr != nil {
			return fmt.Errorf("tcp: worker %d (%s) rejected handshake: %s (and closing: %v)", m, w.addr, resp.Error, cerr)
		}
		return fmt.Errorf("tcp: worker %d (%s) rejected handshake: %s", m, w.addr, resp.Error)
	}
	w.mu.Lock()
	w.conn = conn
	w.lastDial = time.Now()
	c.pmu.Lock()
	c.conns[m] = conn
	c.pmu.Unlock()
	w.mu.Unlock()
	return nil
}

// exchange writes one frame and reads one reply on a raw connection,
// under the call timeout, charging the wire counters. The reply is fr's:
// valid until fr reads again.
func (c *Coordinator) exchange(conn net.Conn, fw *transport.FrameWriter, fr *transport.FrameReader, m *transport.Msg) (*transport.Msg, error) {
	if err := conn.SetDeadline(time.Now().Add(c.cfg.callTimeout)); err != nil {
		return nil, err
	}
	n, err := fw.Write(conn, m, c.cfg.maxFrame)
	c.sent.Add(int64(n))
	if err != nil {
		return nil, err
	}
	resp, rn, err := fr.Read(conn, c.cfg.maxFrame)
	c.recvd.Add(int64(rn))
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// request performs the one exchange of an established connection with
// machine m: a MsgRun carrying the state m lacks, then tasks under spec
// (none for a pure state flush). The state is the log entries m has not
// acknowledged — its own set-up first when it lacks that — and, for each of
// homes (the machines whose batches tasks holds) other than m, that
// machine's set-up as a StateReship unless m holds it already. A
// connection-level failure marks the machine down and returns errDown; an
// executor-reported error returns a *remoteError with the connection kept
// alive and the acknowledgement where it was; a message too large to frame
// never reached the wire and is returned as it is. The outputs and their
// payloads are slices of the worker's read buffer: the caller is done with
// them before it sends machine m another request.
func (c *Coordinator) request(m int, spec transport.Spec, tasks, homes []int) ([]transport.TaskOutput, error) {
	w := c.workers[m]
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.conn == nil {
		return nil, errDown
	}
	setup, reset, blobs, head := c.log.after(w.acked)
	states := w.states[:0]
	if reset {
		// The worker starts over from its own set-up.
		clear(w.holds)
		states = append(states, transport.StateBlob{Kind: transport.StateSetup, Payload: setup[m]})
	}
	states = append(states, blobs...)
	for _, h := range homes {
		if h != m && setup != nil && !w.holds[h] {
			states = append(states, transport.StateBlob{Kind: transport.StateReship, Payload: setup[h]})
		}
	}
	w.states = states
	req := transport.Msg{Type: transport.MsgRun, States: states, Spec: spec, Tasks: tasks}
	resp, err := c.exchange(w.conn, &w.fw, &w.fr, &req)
	// The request is written: its blobs are the log's again.
	clear(states)
	switch {
	case errors.Is(err, transport.ErrFrameTooLarge):
		return nil, fmt.Errorf("tcp: request to worker %d: %w", m, err)
	case err != nil:
		c.markDownLocked(m, w)
		return nil, fmt.Errorf("%w: machine %d: %v", errDown, m, err)
	case resp.Type == transport.MsgError:
		return nil, &remoteError{msg: fmt.Sprintf("worker %d: %s", m, resp.Error)}
	case resp.Type != transport.MsgResult || len(resp.Outputs) != len(tasks):
		return nil, &remoteError{msg: fmt.Sprintf("worker %d: malformed reply (type %d, %d outputs for %d tasks)", m, resp.Type, len(resp.Outputs), len(tasks))}
	}
	w.acked = head
	for _, h := range homes {
		w.holds[h] = h != m && setup != nil
	}
	return resp.Outputs, nil
}

// markDownLocked closes machine m's connection and queues the loss event.
// Caller holds w.mu.
func (c *Coordinator) markDownLocked(m int, w *worker) {
	if w.conn == nil {
		return
	}
	// The connection is already broken; a close error adds nothing.
	_ = w.conn.Close()
	w.conn, w.acked = nil, 0
	clear(w.holds)
	c.pmu.Lock()
	c.conns[m] = nil
	c.pending = append(c.pending, transport.LivenessEvent{Machine: m, Up: false})
	c.pmu.Unlock()
}

func (c *Coordinator) alive(m int) bool {
	w := c.workers[m]
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.conn != nil
}

// Machines implements transport.Transport.
func (c *Coordinator) Machines() int { return len(c.workers) }

// WireBytes implements transport.Transport.
func (c *Coordinator) WireBytes() (int64, int64) { return c.sent.Load(), c.recvd.Load() }

// Close tears down every worker connection. It does not wait for an
// exchange in flight: closing the connection under it is what ends one, and
// the interrupted request then marks its machine down like any other
// connection failure. Then it returns the run's wire buffers to the slab
// pool (release).
func (c *Coordinator) Close() error {
	err := c.closeConns()
	c.release()
	return err
}

// release returns to the slab pool the blobs handed to PushSetup and
// PushState that the log holds or retired, and each connection's frame
// buffers, when nothing can read them any more: no request was abandoned,
// and no exchange is in flight, which would hold its worker's mutex.
// Otherwise it returns nothing and leaves them all to the collector.
func (c *Coordinator) release() {
	if c.abandoned.Load() {
		return
	}
	for i, w := range c.workers {
		if !w.mu.TryLock() {
			for _, held := range c.workers[:i] {
				held.mu.Unlock()
			}
			return
		}
	}
	c.log.release()
	for _, w := range c.workers {
		w.fw.Release()
		w.fr.Release()
		w.mu.Unlock()
	}
}

// closeConns closes every live connection without taking a worker.mu, so
// it returns at once even while a stalled exchange holds one. It is how a
// cancelled run lets go of its workers: Run and the set-up flush call it
// when ctx ends, Close when the run does.
func (c *Coordinator) closeConns() error {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	var first error
	for m, conn := range c.conns {
		if conn == nil {
			continue
		}
		if err := conn.Close(); err != nil && first == nil {
			first = err
		}
		c.conns[m] = nil
	}
	return first
}

// Membership implements transport.Transport: it reports the liveness
// transitions since the last stage boundary. Losses are queued by the
// request that hit the dead connection, so live workers cost nothing
// here; the coordinator only attempts to redial down workers, bringing
// each up to date with one state flush before reporting it up.
func (c *Coordinator) Membership(ctx context.Context) []transport.LivenessEvent {
	for m, w := range c.workers {
		if c.alive(m) || ctx.Err() != nil {
			continue
		}
		w.mu.Lock()
		recent := time.Since(w.lastDial) < c.cfg.redialBackoff
		if !recent {
			w.lastDial = time.Now()
		}
		w.mu.Unlock()
		if recent {
			continue
		}
		if err := c.dialWorker(ctx, m, w); err != nil {
			continue // still down; try again next boundary
		}
		// The fresh connection acknowledges nothing, so this flush is the
		// rejoin replay; a setup blob resets the worker, so replaying to a
		// process that never actually died is safe.
		if _, err := c.request(m, transport.Spec{}, nil, nil); err != nil {
			// A connection failure already re-queued the loss; anything
			// else means the worker is misbehaving — drop the connection
			// either way and retry at a later boundary.
			w.mu.Lock()
			c.markDownLocked(m, w)
			w.mu.Unlock()
			continue
		}
		// m runs its own batches again; a later loss re-ships its set-up.
		for _, o := range c.workers {
			o.mu.Lock()
			o.holds[m] = false
			o.mu.Unlock()
		}
		c.pmu.Lock()
		c.pending = append(c.pending, transport.LivenessEvent{Machine: m, Up: true})
		c.pmu.Unlock()
	}
	c.pmu.Lock()
	ev := c.pending
	c.pending = nil
	c.pmu.Unlock()
	return ev
}

// PushState implements transport.Transport: record the blob in the state
// log, from where it rides in the next request to each worker.
func (c *Coordinator) PushState(ctx context.Context, kind transport.StateKind, payload []byte) error {
	c.log.push(kind, payload)
	return nil
}

// PushSetup implements transport.Transport: start the state log over with
// setup[m] for each machine m, and flush it at once, to every live worker
// concurrently (each decodes its partitions on receipt), so a worker that
// cannot set up fails the run here; it errors if an executor rejects its
// blob or no live workers remain. Workers that fail mid-flush are marked
// down and get their blob on rejoin. A ctx that ends mid-flush closes the
// connections and returns its error; the abandoned exchanges fail at once
// and exit.
func (c *Coordinator) PushSetup(ctx context.Context, setup [][]byte) error {
	if len(setup) != len(c.workers) {
		return fmt.Errorf("tcp: a set-up of %d blobs for %d workers", len(setup), len(c.workers))
	}
	c.log.pushSetup(setup)
	if err := ctx.Err(); err != nil {
		return err
	}
	calls := c.requests()
	for _, k := range calls {
		k.spec, k.tasks, k.homes = transport.Spec{}, nil, k.homes[:0]
		//dbtf:detached joined by the receive below: call.run reports on calls[0].results, through a bound func so the launch allocates nothing
		go k.send()
	}
	errs := make([]error, len(calls))
	for range calls {
		select {
		case o := <-calls[0].results:
			errs[o.exec] = o.err
		case <-ctx.Done():
			c.abandon()
			return ctx.Err()
		}
	}
	live := 0
	for _, err := range errs {
		switch {
		case errors.Is(err, errDown):
			continue
		case err != nil:
			return fmt.Errorf("tcp: state push (%s): %w", transport.StateSetup, err)
		}
		live++
	}
	if live == 0 {
		return fmt.Errorf("tcp: state push (%s): no live workers", transport.StateSetup)
	}
	return nil
}

// call is one request slot: the arguments of executor m's request this
// round and the goroutine body that sends it, bound once.
type call struct {
	c *Coordinator
	m int
	// spec and tasks are the request's; homes are the machines whose
	// batches tasks holds.
	spec         transport.Spec
	tasks, homes []int
	results      chan outcome
	send         func()
}

// run sends the slot's request and reports its outcome.
func (k *call) run() {
	outs, err := k.c.request(k.m, k.spec, k.tasks, k.homes)
	k.results <- outcome{exec: k.m, outs: outs, err: err}
}

// requests returns the request slots, one per worker, and their shared
// results channel (calls[0].results) — made at the first exchange and
// after an abandoned one, whose requests may still be reading their slots
// and report into the old channel. The channel holds one outcome per
// worker: a round sends at most one request to each, and an abandoned
// round's requests deposit their outcome and exit without a receiver.
func (c *Coordinator) requests() []*call {
	if c.calls == nil {
		results := make(chan outcome, len(c.workers))
		c.calls = make([]*call, len(c.workers))
		for m := range c.calls {
			k := &call{c: c, m: m, results: results}
			k.send = k.run
			c.calls[m] = k
		}
	}
	return c.calls
}

// abandon lets go of the requests in flight when ctx ends: their slots are
// dropped and the connections under them closed (a close error adds
// nothing to ctx's), so they fail at once instead of holding their
// worker.mu until callTimeout.
func (c *Coordinator) abandon() {
	c.abandoned.Store(true)
	c.calls = nil
	_ = c.closeConns()
}

// answered is a home batch's route once its reply is in (or when the stage
// has no task for that home).
const answered = -1

// outcome is one request's result as Run receives it.
type outcome struct {
	exec int
	outs []transport.TaskOutput
	err  error
}

// executorFor routes a batch: the home machine if it is live, else the
// first live ring successor — the same successor rule the cluster engine's
// reassignment uses, so simulated and real reassignment agree.
func (c *Coordinator) executorFor(home int) (int, error) {
	n := len(c.workers)
	for i := 0; i < n; i++ {
		m := (home + i) % n
		if c.alive(m) {
			return m, nil
		}
	}
	return 0, errors.New("tcp: no live workers")
}

// tasksByHome returns, per machine, the tasks of a stage of the given size
// whose home it is. Every stage of a mode's update has the same size, so
// the lists are built when the size changes and shared, read-only, with
// every request until then.
func (c *Coordinator) tasksByHome(tasks int) [][]int {
	if c.byHome == nil || c.homeTasks != tasks {
		n := len(c.workers)
		byHome := make([][]int, n)
		for t := 0; t < tasks; t++ {
			byHome[t%n] = append(byHome[t%n], t)
		}
		c.homeTasks, c.byHome = tasks, byHome
	}
	return c.byHome
}

// Run implements transport.Transport: the stage's tasks fall into one batch
// per home machine, every batch is routed to its executor, and each
// executor gets the batches routed to it as one request — with every
// machine up, its own; after a loss, a survivor's own and the ones it
// inherits, concatenated, with the set-up of each machine it inherits from
// that it does not hold yet. The requests run concurrently and their
// results are delivered sequentially, a reply's outputs before its
// connection is read again: they are slices of that connection's read
// buffer, which is why two batches for one executor must not be two
// exchanges. An executor whose connection dies has all its batches routed
// again next round; replies are all-or-nothing per request, so a retried
// batch never double-delivers.
func (c *Coordinator) Run(ctx context.Context, spec transport.Spec, deliver func(transport.TaskResult) error) error {
	n := len(c.workers)
	byHome := c.tasksByHome(spec.Tasks)
	left := 0
	for home, tasks := range byHome {
		c.route[home] = answered
		if len(tasks) > 0 {
			c.route[home] = home
			left++
		}
	}
	calls := c.requests()
	for round := 0; left > 0; round++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if round > n {
			return errors.New("tcp: stage retries exceeded machine count")
		}
		for home := range byHome {
			if c.route[home] == answered {
				continue
			}
			exec, err := c.executorFor(home)
			if err != nil {
				return err
			}
			c.route[home] = exec
		}
		launched := 0
		for exec, k := range calls {
			k.spec, k.tasks, k.homes = spec, nil, k.homes[:0]
			merged := false
			for home := range byHome {
				switch {
				case c.route[home] != exec:
					continue
				case k.tasks == nil:
					k.tasks = byHome[home]
				default:
					if !merged {
						k.tasks, merged = slices.Clone(k.tasks), true
					}
					k.tasks = append(k.tasks, byHome[home]...)
				}
				k.homes = append(k.homes, home)
			}
			if k.tasks == nil {
				continue
			}
			launched++
			//dbtf:detached joined by the receive below: call.run reports on calls[0].results, through a bound func so the launch allocates nothing
			go k.send()
		}
		var fatal error
		for ; launched > 0; launched-- {
			var o outcome
			select {
			case o = <-calls[0].results:
			case <-ctx.Done():
				c.abandon()
				return ctx.Err()
			}
			switch {
			case errors.Is(o.err, errDown):
				// Its batches keep their route and get a new one next round.
				continue
			case o.err != nil:
				if fatal == nil {
					fatal = o.err
				}
			case fatal == nil:
				for _, out := range o.outs {
					if err := deliver(transport.TaskResult{
						Task:    out.Task,
						Machine: o.exec,
						Nanos:   out.Nanos,
						Payload: out.Payload,
					}); err != nil && fatal == nil {
						fatal = err
					}
				}
			}
			for home := range byHome {
				if c.route[home] == o.exec {
					c.route[home] = answered
					left--
				}
			}
		}
		if fatal != nil {
			return fatal
		}
	}
	return nil
}

var _ transport.Transport = (*Coordinator)(nil)

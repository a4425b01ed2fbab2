package dbtf_test

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dbtf"
	"dbtf/internal/trace"
)

// These tests pin the transport guarantee end to end: a run over real
// dbtf-worker OS processes speaking the TCP wire protocol must produce
// bit-for-bit the same factors as the simulated in-process cluster for
// the same seed — including when a worker process is killed mid-run and
// the recovery protocol reroutes its partitions over the socket.

var (
	workerBinOnce sync.Once
	workerBinPath string
	workerBinErr  error
)

// workerBinary builds cmd/dbtf-worker once per test process and returns
// the binary path.
func workerBinary(t *testing.T) string {
	t.Helper()
	workerBinOnce.Do(func() {
		dir, err := os.MkdirTemp("", "dbtf-worker-bin")
		if err != nil {
			workerBinErr = err
			return
		}
		workerBinPath = filepath.Join(dir, "dbtf-worker")
		out, err := exec.Command("go", "build", "-o", workerBinPath, "./cmd/dbtf-worker").CombinedOutput()
		if err != nil {
			workerBinErr = fmt.Errorf("building dbtf-worker: %v\n%s", err, out)
		}
	})
	if workerBinErr != nil {
		t.Fatal(workerBinErr)
	}
	return workerBinPath
}

// workerProc is one spawned dbtf-worker OS process.
type workerProc struct {
	Addr string
	cmd  *exec.Cmd
}

// Kill terminates the worker process immediately — the real-machine
// equivalent of the simulated cluster's machine loss.
func (w *workerProc) Kill(t *testing.T) {
	t.Helper()
	if w.cmd == nil {
		return
	}
	if err := w.cmd.Process.Kill(); err != nil {
		t.Fatalf("killing worker %s: %v", w.Addr, err)
	}
	// Kill always surfaces as a non-nil Wait error; reap the process and
	// move on.
	_ = w.cmd.Wait()
	w.cmd = nil
}

// startWorkerProc launches a dbtf-worker on listen (use 127.0.0.1:0 for
// an ephemeral port) and harvests the bound address from its stdout.
func startWorkerProc(t *testing.T, listen string) *workerProc {
	t.Helper()
	cmd := exec.Command(workerBinary(t), "-listen", listen, "-q")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	w := &workerProc{cmd: cmd}
	t.Cleanup(func() { w.Kill(t) })

	lines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		if sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	select {
	case line, ok := <-lines:
		const prefix = "dbtf-worker listening on "
		if !ok || !strings.HasPrefix(line, prefix) {
			t.Fatalf("worker printed %q, want %q address line", line, prefix)
		}
		w.Addr = strings.TrimPrefix(line, prefix)
	case <-time.After(10 * time.Second):
		t.Fatal("worker never printed its listen address")
	}
	return w
}

func startWorkerProcs(t *testing.T, n int) ([]*workerProc, []string) {
	t.Helper()
	procs := make([]*workerProc, n)
	addrs := make([]string, n)
	for i := range procs {
		procs[i] = startWorkerProc(t, "127.0.0.1:0")
		addrs[i] = procs[i].Addr
	}
	return procs, addrs
}

// TestTransportTCPIdenticalToSimulated is the headline differential: for
// fixed seeds, simulated and multi-process runs agree bit-for-bit on the
// factors and on the formula-based message accounting.
func TestTransportTCPIdenticalToSimulated(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	const machines = 3
	_, addrs := startWorkerProcs(t, machines)
	for seed := int64(1); seed <= 2; seed++ {
		x := diffTensor(t, seed)
		opt := dbtf.Options{Rank: 4, Machines: machines, MaxIter: 5, Seed: seed, InitialSets: 2}
		sim, err := dbtf.Factorize(context.Background(), x, opt)
		if err != nil {
			t.Fatalf("seed %d: simulated: %v", seed, err)
		}
		opt.Workers = addrs
		tcp, err := dbtf.Factorize(context.Background(), x, opt)
		if err != nil {
			t.Fatalf("seed %d: tcp: %v", seed, err)
		}
		assertIdentical(t, seed, "tcp transport", sim, tcp)
		if len(tcp.IterationErrors) != len(sim.IterationErrors) {
			t.Fatalf("seed %d: iteration trajectories differ in length: %d vs %d",
				seed, len(tcp.IterationErrors), len(sim.IterationErrors))
		}
		for i := range tcp.IterationErrors {
			if tcp.IterationErrors[i] != sim.IterationErrors[i] {
				t.Errorf("seed %d: iteration %d error %d over tcp, %d simulated",
					seed, i, tcp.IterationErrors[i], sim.IterationErrors[i])
			}
		}
		// The traffic model is a property of the algorithm, not the
		// backend: stage, task, and byte accounting must agree exactly.
		ts, ss := tcp.Stats, sim.Stats
		if ts.Stages != ss.Stages || ts.Tasks != ss.Tasks {
			t.Errorf("seed %d: stages/tasks %d/%d over tcp, %d/%d simulated",
				seed, ts.Stages, ts.Tasks, ss.Stages, ss.Tasks)
		}
		if ts.ShuffledBytes != ss.ShuffledBytes || ts.BroadcastBytes != ss.BroadcastBytes || ts.CollectedBytes != ss.CollectedBytes {
			t.Errorf("seed %d: traffic %d/%d/%d over tcp, %d/%d/%d simulated",
				seed, ts.ShuffledBytes, ts.BroadcastBytes, ts.CollectedBytes,
				ss.ShuffledBytes, ss.BroadcastBytes, ss.CollectedBytes)
		}
	}
}

// TestTransportTCPTopFiberInitIdentical pins the new deterministic
// initializer across backends: a topfiber-seeded run over real worker
// processes must match the simulated cluster bit for bit — factors,
// iteration trajectory, and stage/task/traffic accounting. The init runs
// on the driver (it consumes no RNG draws and no cluster stages), so any
// divergence here means the transport leaked into the seeding.
func TestTransportTCPTopFiberInitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	const machines = 3
	_, addrs := startWorkerProcs(t, machines)
	for seed := int64(7); seed <= 8; seed++ {
		x := diffTensor(t, seed)
		opt := dbtf.Options{Rank: 4, Machines: machines, MaxIter: 5, Seed: seed, Init: dbtf.InitTopFiber}
		sim, err := dbtf.Factorize(context.Background(), x, opt)
		if err != nil {
			t.Fatalf("seed %d: simulated: %v", seed, err)
		}
		opt.Workers = addrs
		tcp, err := dbtf.Factorize(context.Background(), x, opt)
		if err != nil {
			t.Fatalf("seed %d: tcp: %v", seed, err)
		}
		assertIdentical(t, seed, "tcp transport with topfiber init", sim, tcp)
		if fmt.Sprint(tcp.IterationErrors) != fmt.Sprint(sim.IterationErrors) {
			t.Errorf("seed %d: iteration trajectory %v over tcp, %v simulated",
				seed, tcp.IterationErrors, sim.IterationErrors)
		}
		ts, ss := tcp.Stats, sim.Stats
		if ts.Stages != ss.Stages || ts.Tasks != ss.Tasks {
			t.Errorf("seed %d: stages/tasks %d/%d over tcp, %d/%d simulated",
				seed, ts.Stages, ts.Tasks, ss.Stages, ss.Tasks)
		}
		if ts.ShuffledBytes != ss.ShuffledBytes || ts.BroadcastBytes != ss.BroadcastBytes || ts.CollectedBytes != ss.CollectedBytes {
			t.Errorf("seed %d: traffic %d/%d/%d over tcp, %d/%d/%d simulated",
				seed, ts.ShuffledBytes, ts.BroadcastBytes, ts.CollectedBytes,
				ss.ShuffledBytes, ss.BroadcastBytes, ss.CollectedBytes)
		}
		// Data-determined seeding: the same run with a different seed must
		// still produce the same factors (the RNG is never consulted).
		opt.Workers = nil
		opt.Seed = seed + 100
		reseeded, err := dbtf.Factorize(context.Background(), x, opt)
		if err != nil {
			t.Fatalf("seed %d: reseeded: %v", seed, err)
		}
		assertIdentical(t, seed, "topfiber under a different seed", sim, reseeded)
	}
}

// TestTransportTCPSurvivesWorkerKill kills a live worker process after the
// first iteration. The coordinator must detect the loss, reroute the dead
// machine's partitions to the ring successor, and still produce factors
// bit-identical to the simulated cluster's.
func TestTransportTCPSurvivesWorkerKill(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	const (
		machines = 3
		seed     = int64(3)
	)
	procs, addrs := startWorkerProcs(t, machines)
	x := diffTensor(t, seed)
	opt := dbtf.Options{Rank: 4, Machines: machines, MaxIter: 6, Seed: seed}
	sim, err := dbtf.Factorize(context.Background(), x, opt)
	if err != nil {
		t.Fatalf("simulated: %v", err)
	}

	killed := false
	opt.Workers = addrs
	opt.Tracer = dbtf.NewTracer(sinkFunc(func(ev *dbtf.TraceEvent) {
		// The driver blocks in this sink between stages; killing at the end
		// of the first iteration makes the loss land mid-run at a
		// deterministic point.
		if !killed && ev.Type == trace.IterationEnd {
			killed = true
			procs[1].Kill(t)
		}
	}))
	tcp, err := dbtf.Factorize(context.Background(), x, opt)
	if err != nil {
		t.Fatalf("tcp with worker kill: %v", err)
	}
	if !killed {
		t.Fatal("no iteration_end event reached the sink; the kill was not injected")
	}
	assertIdentical(t, seed, "tcp transport with worker kill", sim, tcp)
	if tcp.Stats.MachineLosses < 1 {
		t.Errorf("Stats.MachineLosses = %d after killing a worker, want >= 1", tcp.Stats.MachineLosses)
	}
	if tcp.Stats.Recoveries < 1 {
		t.Errorf("Stats.Recoveries = %d after killing a worker, want >= 1", tcp.Stats.Recoveries)
	}
}

// TestTransportTCPWorkerRestartRejoins additionally restarts the killed
// worker on the same port. Whether the rejoin lands before the run ends is
// timing-dependent, so only the bit-identity is asserted; the rejoin path
// itself is pinned deterministically in internal/transport/tcp's tests.
func TestTransportTCPWorkerRestartRejoins(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	const (
		machines = 3
		seed     = int64(4)
	)
	procs, addrs := startWorkerProcs(t, machines)
	x := diffTensor(t, seed)
	opt := dbtf.Options{Rank: 4, Machines: machines, MaxIter: 8, Seed: seed}
	sim, err := dbtf.Factorize(context.Background(), x, opt)
	if err != nil {
		t.Fatalf("simulated: %v", err)
	}

	killed := false
	opt.Workers = addrs
	opt.Tracer = dbtf.NewTracer(sinkFunc(func(ev *dbtf.TraceEvent) {
		if !killed && ev.Type == trace.IterationEnd {
			killed = true
			procs[2].Kill(t)
			// Relaunch on the same address; the coordinator's Membership
			// sweep redials it and replays the state history.
			procs[2] = startWorkerProc(t, addrs[2])
		}
	}))
	tcp, err := dbtf.Factorize(context.Background(), x, opt)
	if err != nil {
		t.Fatalf("tcp with worker restart: %v", err)
	}
	if !killed {
		t.Fatal("no iteration_end event reached the sink; the kill was not injected")
	}
	assertIdentical(t, seed, "tcp transport with worker restart", sim, tcp)
	if tcp.Stats.MachineLosses < 1 {
		t.Errorf("Stats.MachineLosses = %d after killing a worker, want >= 1", tcp.Stats.MachineLosses)
	}
	t.Logf("losses=%d recoveries=%d (recoveries > losses ⇒ the restart rejoined in time)",
		tcp.Stats.MachineLosses, tcp.Stats.Recoveries)
}

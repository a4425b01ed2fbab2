package core

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"

	"dbtf/internal/boolmat"
	"dbtf/internal/cluster"
	"dbtf/internal/gen"
	"dbtf/internal/partition"
	"dbtf/internal/tensor"
	"dbtf/internal/trace"
	"dbtf/internal/transport"
	"dbtf/internal/transport/tcp"
)

// TestWorkerHoldsItsPartitions: a worker set up as machine m of M holds, in
// every mode, exactly the partitions homed on m — pi ≡ m mod M — each as
// the driver built it, and refuses a task on any other partition with a
// *notHeldError; a machine's re-shipped set-up adds that machine's
// partitions and nothing else.
func TestWorkerHoldsItsPartitions(t *testing.T) {
	const machines = 3
	rng := rand.New(rand.NewSource(12))
	x := randomTensor(rng, 9, 8, 7, 0.2)
	cfg := runConfig{Rank: 2, Partitions: 7, GroupBits: 4, Machines: machines}
	px := buildPartitions(t, x, cfg)
	defer releasePartitions(px)
	blobs := setupBlobs(t, x, cfg)
	factors := encodeFactors(boolmat.RandomFactor(rng, 9, 2, 0.4), boolmat.RandomFactor(rng, 8, 2, 0.4), boolmat.RandomFactor(rng, 7, 2, 0.4))
	for m := 0; m < machines; m++ {
		w := NewWorker()
		if err := w.Apply(transport.StateSetup, blobs[m]); err != nil {
			t.Fatal(err)
		}
		if err := w.Apply(transport.StateFactors, factors); err != nil {
			t.Fatal(err)
		}
		heir := (m + machines - 1) % machines
		holds := func(when string, homes ...int) {
			t.Helper()
			for mode, p := range w.ex.px {
				for pi, part := range p.Parts {
					want := false
					for _, h := range homes {
						want = want || pi%machines == h
					}
					switch {
					case (part != nil) != want:
						t.Fatalf("machine %d %s: mode %d partition %d held: %v", m, when, mode+1, pi, part != nil)
					case part != nil && !samePartition(part, px[mode].Parts[pi], p.NumRows):
						t.Fatalf("machine %d %s: mode %d partition %d differs from the driver's", m, when, mode+1, pi)
					}
					_, err := w.RunBatch(transport.Spec{Kind: transport.KindEval, Mode: mode}, []int{pi})
					var notHeld *notHeldError
					if errors.As(err, &notHeld) == want {
						t.Fatalf("machine %d %s: mode %d partition %d evaluates to %v", m, when, mode+1, pi, err)
					}
				}
			}
		}
		holds("after its set-up", m)
		if err := w.Apply(transport.StateReship, blobs[heir]); err != nil {
			t.Fatal(err)
		}
		holds("after a re-ship", m, heir)
	}
}

// setupRecorder is a Host that counts the partition bodies of the set-up
// blobs it is handed, its own apart from re-shipped ones.
type setupRecorder struct {
	transport.Host
	own, reshipped atomic.Int64
}

func (r *setupRecorder) Apply(kind transport.StateKind, payload []byte) error {
	switch kind {
	case transport.StateSetup:
		r.own.Add(int64(len(payload) - setupHeaderLen))
	case transport.StateReship:
		r.reshipped.Add(int64(len(payload) - setupHeaderLen))
	}
	return r.Host.Apply(kind, payload)
}

// TestShuffledBytesAreSetupBytes: the shuffle a run charges is the set-up
// bodies its executors are sent — over in-process hosts and over TCP
// sockets alike, and as the simulated run charges it. When a TCP worker is
// killed mid-run, the bodies carried to its ring successor with the first of
// its batches are the ReshipBytes of the lost machine's partitions, which
// is what the loss charged; no other worker is sent any.
func TestShuffledBytesAreSetupBytes(t *testing.T) {
	const machines = 3
	rng := rand.New(rand.NewSource(33))
	planted, _, _, _ := gen.FromFactors(rng, 14, 12, 10, 4, 0.3)
	x := gen.AddNoise(rng, planted, 0.10, 0.05)
	opt := Options{Rank: 4, Seed: 5, MinIter: 3, MaxIter: 3, Partitions: 5}
	ctx := context.Background()
	sim, err := Decompose(ctx, x, testCluster(machines), opt)
	if err != nil {
		t.Fatal(err)
	}
	ht := newBatchHostTransport(machines)
	res, err := Decompose(ctx, x, cluster.New(cluster.Config{Machines: machines, Transport: ht}), opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := ht.bodies.Load(); got != res.Stats.ShuffledBytes || got != sim.Stats.ShuffledBytes {
		t.Errorf("hosts were sent %d B of bodies; the run charged %d B, the simulated one %d B", got, res.Stats.ShuffledBytes, sim.Stats.ShuffledBytes)
	}

	var lis [machines]net.Listener
	var served [machines]chan error
	var recs [machines]*setupRecorder
	addrs := make([]string, machines)
	for m := range lis {
		if lis[m], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		addrs[m], recs[m], served[m] = lis[m].Addr().String(), &setupRecorder{Host: NewWorker()}, make(chan error, 1)
		go func(m int) { served[m] <- tcp.Serve(lis[m], recs[m], nil) }(m)
	}
	const lost = 1
	stopped := false
	stop := func(m int) {
		// Closing an already closed listener only says so.
		_ = lis[m].Close()
		if err := <-served[m]; err != nil {
			t.Errorf("Serve(worker %d): %v", m, err)
		}
	}
	defer func() {
		for m := range lis {
			if m != lost || !stopped {
				stop(m)
			}
		}
	}()
	co, err := tcp.DialContext(context.Background(), tcp.Config{Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := co.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	tr := trace.New(sinkFunc(func(ev *trace.Event) {
		// The driver waits in the sink: the kill lands between iterations.
		if !stopped && ev.Type == trace.IterationEnd {
			stopped = true
			stop(lost)
		}
	}))
	res, err = Decompose(ctx, x, cluster.New(cluster.Config{Machines: machines, Transport: co, Tracer: tr}), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.A.Equal(sim.A) || !res.B.Equal(sim.B) || !res.C.Equal(sim.C) || res.Stats.MachineLosses != 1 {
		t.Fatalf("over tcp with worker %d killed: %d losses, factors equal to the simulated run's: %v", lost, res.Stats.MachineLosses,
			res.A.Equal(sim.A) && res.B.Equal(sim.B) && res.C.Equal(sim.C))
	}
	cfg, err := opt.withDefaults(machines)
	if err != nil {
		t.Fatal(err)
	}
	px := buildPartitions(t, x, cfg)
	defer releasePartitions(px)
	var reship int64
	for _, p := range px {
		for pi := lost; pi < len(p.Parts); pi += machines {
			reship += p.ReshipBytes(pi)
		}
	}
	var own int64
	for _, r := range recs {
		own += r.own.Load()
	}
	successor := (lost + 1) % machines
	for m, r := range recs {
		want := int64(0)
		if m == successor {
			want = reship
		}
		if r.reshipped.Load() != want {
			t.Errorf("worker %d was re-shipped %d B of bodies, want %d", m, r.reshipped.Load(), want)
		}
	}
	if own != sim.Stats.ShuffledBytes || own+reship != res.Stats.ShuffledBytes {
		t.Errorf("the workers' own set-ups carried %d B of bodies and the re-ship %d B; the run charged %d B, the simulated one %d B",
			own, reship, res.Stats.ShuffledBytes, sim.Stats.ShuffledBytes)
	}
}

// TestStoredSetHoldsExactBytes: a set a caller keeps past its runs
// (DecomposeOn) is built at its exact length, so after the first run its
// ResidentBytes is the exact partitionings' (partition.FromTensorExact),
// below what the same partitionings hold at the slab pool's classes; a
// second run on it gives a private Decompose's result, bit for bit.
// Decompose's own set still borrows class-sized arenas from the pool.
func TestStoredSetHoldsExactBytes(t *testing.T) {
	const machines = 2
	x, _, _, _ := gen.FromFactors(rand.New(rand.NewSource(3)), 40, 36, 32, 4, 0.3)
	dims := [3]int{40, 36, 32}
	opt := Options{Rank: 4, MaxIter: 3, Seed: 5}
	cfg, err := opt.withDefaults(machines)
	if err != nil {
		t.Fatal(err)
	}
	var exact, pooled int64
	for mode := tensor.Mode1; mode <= tensor.Mode3; mode++ {
		carry := partition.NewCarry(dims, mode, machines, cfg.Partitions)
		exact += partition.FromTensorExact(x, mode, cfg.Partitions, carry).ResidentBytes()
		px := partition.FromTensor(x, mode, cfg.Partitions, carry)
		pooled += px.ResidentBytes()
		px.Release()
	}

	ctx := context.Background()
	set := NewPartitions(x, cfg.Partitions, machines)
	if held := set.ResidentBytes(); held != 0 {
		t.Fatalf("an unbuilt set holds %d B", held)
	}
	if _, err := DecomposeOn(ctx, set, testCluster(machines), opt); err != nil {
		t.Fatal(err)
	}
	if held := set.ResidentBytes(); held != exact || exact >= pooled {
		t.Errorf("the stored set holds %d B, want its exact %d B, below the pooled %d B", held, exact, pooled)
	}
	second, err := DecomposeOn(ctx, set, testCluster(machines), opt)
	if err != nil {
		t.Fatal(err)
	}
	private, err := Decompose(ctx, x, testCluster(machines), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(second, private) {
		t.Error("a second run on the stored set differs from a private Decompose")
	}

	cl := testCluster(machines)
	d := &decomposition{ctx: ctx, x: x, cl: cl, opt: opt, ex: newExecutor(cfg, dims, machines, cl.MachineFor, lookahead)}
	own := &Partitions{x: x, n: cfg.Partitions, machines: machines, private: true}
	if err := d.partitionAll(own); err != nil {
		t.Fatal(err)
	}
	if held := own.ResidentBytes(); held != pooled {
		t.Errorf("a private set holds %d B, want the pooled %d B", held, pooled)
	}
	own.release()
}

package core

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"dbtf/internal/boolmat"
	"dbtf/internal/cluster"
	"dbtf/internal/gen"
	"dbtf/internal/tensor"
	"dbtf/internal/trace"
	"dbtf/internal/transport"
)

// hostTransport is the minimal remote backend: Worker hosts called
// in-process with no sockets. It exercises the whole driver/executor split
// — state replication, stage shipping, result payloads — so a divergence
// here is a protocol bug, not a networking bug.
type hostTransport struct {
	hosts []transport.Host
	// batch ships each machine's tasks as one RunBatch call, as the tcp
	// coordinator does; false ships every task as a batch of one.
	batch bool
	sent  atomic.Int64
	recvd atomic.Int64
	// evalReplies counts the eval payloads received.
	evalReplies atomic.Int64
}

func newHostTransport(machines int) *hostTransport {
	ht := &hostTransport{}
	for m := 0; m < machines; m++ {
		ht.hosts = append(ht.hosts, NewWorker())
	}
	return ht
}

// newBatchHostTransport ships each machine's tasks as one batch, the way
// the tcp coordinator does.
func newBatchHostTransport(machines int) *hostTransport {
	ht := newHostTransport(machines)
	ht.batch = true
	return ht
}

func (h *hostTransport) Machines() int { return len(h.hosts) }

func (h *hostTransport) Membership(context.Context) []transport.LivenessEvent { return nil }

func (h *hostTransport) PushState(ctx context.Context, kind transport.StateKind, payload []byte) error {
	for _, host := range h.hosts {
		if err := host.Apply(kind, payload); err != nil {
			return err
		}
		h.sent.Add(int64(len(payload)))
	}
	return nil
}

func (h *hostTransport) Run(ctx context.Context, spec transport.Spec, deliver func(transport.TaskResult) error) error {
	var batches [][]int
	if h.batch {
		batches = make([][]int, len(h.hosts))
		for task := 0; task < spec.Tasks; task++ {
			batches[task%len(h.hosts)] = append(batches[task%len(h.hosts)], task)
		}
	} else {
		for task := 0; task < spec.Tasks; task++ {
			batches = append(batches, []int{task})
		}
	}
	for _, tasks := range batches {
		if len(tasks) == 0 {
			continue
		}
		m := tasks[0] % len(h.hosts)
		outs, err := h.hosts[m].RunBatch(spec, tasks)
		if err != nil {
			return err
		}
		for _, out := range outs {
			h.recvd.Add(int64(len(out.Payload)))
			if spec.Kind == transport.KindEval {
				h.evalReplies.Add(1)
			}
			if err := deliver(transport.TaskResult{Task: out.Task, Machine: m, Nanos: 1000, Payload: out.Payload}); err != nil {
				return err
			}
		}
	}
	return nil
}

func (h *hostTransport) WireBytes() (int64, int64) { return h.sent.Load(), h.recvd.Load() }
func (h *hostTransport) Close() error              { return nil }

// TestRemoteHostsMatchSimulated is the in-process half of the transport
// differential guarantee: for the same seed, Decompose over Worker hosts
// must be bit-identical to Decompose on the simulated backend — factors,
// error trajectory, and the formula-based traffic statistics.
func TestRemoteHostsMatchSimulated(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 4; trial++ {
		i, j, k := rng.Intn(12)+4, rng.Intn(12)+4, rng.Intn(12)+4
		x := randomTensor(rng, i, j, k, 0.12)
		opt := Options{
			Rank:        rng.Intn(4) + 2,
			Seed:        int64(trial + 1),
			MaxIter:     3,
			Partitions:  rng.Intn(3) + 1,
			InitialSets: 2,
			NoCache:     trial%2 == 1,
		}
		machines := rng.Intn(3) + 2

		sim, err := Decompose(context.Background(), x, testCluster(machines), opt)
		if err != nil {
			t.Fatalf("trial %d: simulated: %v", trial, err)
		}
		rem, err := Decompose(context.Background(), x,
			cluster.New(cluster.Config{Machines: machines, Transport: newHostTransport(machines)}), opt)
		if err != nil {
			t.Fatalf("trial %d: remote: %v", trial, err)
		}

		if !rem.A.Equal(sim.A) || !rem.B.Equal(sim.B) || !rem.C.Equal(sim.C) {
			t.Fatalf("trial %d: remote factors differ from simulated", trial)
		}
		if rem.Error != sim.Error || rem.Iterations != sim.Iterations || rem.Converged != sim.Converged {
			t.Fatalf("trial %d: remote result %d/%d/%v, simulated %d/%d/%v",
				trial, rem.Error, rem.Iterations, rem.Converged, sim.Error, sim.Iterations, sim.Converged)
		}
		if len(rem.IterationErrors) != len(sim.IterationErrors) {
			t.Fatalf("trial %d: iteration-error lengths differ: %d vs %d",
				trial, len(rem.IterationErrors), len(sim.IterationErrors))
		}
		for it := range rem.IterationErrors {
			if rem.IterationErrors[it] != sim.IterationErrors[it] {
				t.Fatalf("trial %d: iteration %d error %d, simulated %d",
					trial, it, rem.IterationErrors[it], sim.IterationErrors[it])
			}
		}
		// The formula-based accounting is backend-independent by design.
		rs, ss := rem.Stats, sim.Stats
		if rs.Stages != ss.Stages || rs.Tasks != ss.Tasks {
			t.Fatalf("trial %d: stage/task counts differ: %d/%d vs %d/%d",
				trial, rs.Stages, rs.Tasks, ss.Stages, ss.Tasks)
		}
		if rs.ShuffledBytes != ss.ShuffledBytes || rs.BroadcastBytes != ss.BroadcastBytes || rs.CollectedBytes != ss.CollectedBytes {
			t.Fatalf("trial %d: traffic formulas differ: shuffle %d/%d broadcast %d/%d collect %d/%d",
				trial, rs.ShuffledBytes, ss.ShuffledBytes, rs.BroadcastBytes, ss.BroadcastBytes,
				rs.CollectedBytes, ss.CollectedBytes)
		}
	}
}

// TestCollectedBytesAreReplyBytes: the collected bytes the driver counts are
// the bytes the executors' replies carried, less one header per eval reply
// (a total-error reply is its 8-byte body) — per task and batched, at an
// odd rank, so a sweep holds paired stages and the one-column tail, with
// and without the cache — and the simulated run, which encodes nothing,
// counts the same.
func TestCollectedBytesAreReplyBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	planted, _, _, _ := gen.FromFactors(rng, 18, 15, 12, 5, 0.3)
	x := gen.AddNoise(rng, planted, 0.10, 0.05)
	for _, noCache := range []bool{false, true} {
		opt := Options{Rank: 5, Seed: 3, MaxIter: 3, Partitions: 4, NoCache: noCache}
		sim, err := Decompose(context.Background(), x, testCluster(3), opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, ht := range []*hostTransport{newHostTransport(3), newBatchHostTransport(3)} {
			res, err := Decompose(context.Background(), x, cluster.New(cluster.Config{Machines: 3, Transport: ht}), opt)
			if err != nil {
				t.Fatal(err)
			}
			collected, replies := res.Stats.CollectedBytes, ht.evalReplies.Load()
			if _, recvd := ht.WireBytes(); replies == 0 || recvd != collected+deltasHeaderLen*replies {
				t.Errorf("noCache=%v batch=%v: %d bytes received in %d eval replies, %d collected",
					noCache, ht.batch, recvd, replies, collected)
			}
			if collected != sim.Stats.CollectedBytes {
				t.Errorf("noCache=%v batch=%v: %d bytes collected, the simulated run %d",
					noCache, ht.batch, collected, sim.Stats.CollectedBytes)
			}
		}
	}
}

// TestWorkerRejectsOutOfOrderState pins the executor's error paths: stages
// before setup, factors before setup, columns before factors, and garbage
// payloads must all fail loudly.
func TestWorkerRejectsOutOfOrderState(t *testing.T) {
	w := NewWorker()
	if _, err := w.RunBatch(transport.Spec{Name: "eval:A", Kind: transport.KindEval}, []int{0}); err == nil {
		t.Fatal("RunBatch before setup succeeded")
	}
	if err := w.Apply(transport.StateFactors, nil); err == nil {
		t.Fatal("factors push before setup succeeded")
	}
	if err := w.Apply(transport.StateColumn, nil); err == nil {
		t.Fatal("column push before setup succeeded")
	}
	if err := w.Apply(transport.StateSetup, []byte("garbage")); err == nil {
		t.Fatal("garbage setup payload accepted")
	}
	if err := w.Apply(transport.StateKind(99), nil); err == nil {
		t.Fatal("unknown state kind accepted")
	}

	rng := rand.New(rand.NewSource(3))
	x := randomTensor(rng, 5, 6, 7, 0.2)
	setup := encodeSetup(x, runConfig{Rank: 2, Partitions: 2, GroupBits: 4, Machines: 2})
	if err := w.Apply(transport.StateSetup, setup); err != nil {
		t.Fatalf("valid setup rejected: %v", err)
	}
	if err := w.Apply(transport.StateColumn, encodeColumns(0, 0, 1, boolmat.RandomFactor(rng, 5, 2, 0.5))); err == nil {
		t.Fatal("column push before factors succeeded")
	}
	if _, err := w.RunBatch(transport.Spec{Name: "eval:A", Kind: transport.KindEval, Mode: 0, Col: 0}, []int{0}); err == nil {
		t.Fatal("eval before factors succeeded")
	}
	if err := w.Apply(transport.StateFactors, encodeFactors(boolmat.RandomFactor(rng, 5, 2, 0.5),
		boolmat.RandomFactor(rng, 6, 3, 0.5), boolmat.RandomFactor(rng, 7, 2, 0.5))); err == nil {
		t.Fatal("factors of the wrong shape accepted")
	}
}

// TestSetupCodecRoundTrip: the setup blob carries every runConfig field —
// a value per kind the walk knows, so a field it dropped or mis-typed
// shows — and the tensor; a blob cut inside the configuration or carrying
// an out-of-range one is refused before the tensor is looked at.
func TestSetupCodecRoundTrip(t *testing.T) {
	x := randomTensor(rand.New(rand.NewSource(5)), 5, 6, 7, 0.2)
	cfg := runConfig{
		Rank: 3, MaxIter: 7, MinIter: 2, InitialSets: 4, Partitions: 2, GroupBits: 4,
		Tolerance: -9, Init: InitTopFiber, Seed: -42, NoCache: true, Machines: 2,
	}
	blob := encodeSetup(x, cfg)
	got, gx, err := decodeSetup(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got != cfg {
		t.Fatalf("decoded config %+v, want %+v", got, cfg)
	}
	if fingerprint(gx, got) != fingerprint(x, cfg) {
		t.Fatal("decoded tensor differs from the one encoded")
	}
	words := reflect.TypeOf(cfg).NumField()
	for _, cut := range []int{0, 7, 8*words - 1} {
		if _, _, err := decodeSetup(blob[:cut]); err == nil || !strings.Contains(err.Error(), "shorter than") {
			t.Fatalf("setup cut at %d bytes: got %v, want the length check", cut, err)
		}
	}
	if _, _, err := decodeSetup(blob[:8*words]); err == nil {
		t.Fatal("setup without a tensor accepted")
	}
	if _, _, err := decodeSetup(append(slices.Clone(blob), 0)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("setup with a byte after the last coordinate: got %v, want the trailing-bytes check", err)
	}
	cfg.Rank = boolmat.MaxRank + 1
	if _, _, err := decodeSetup(encodeSetup(x, cfg)); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("rank %d: got %v, want the range check", cfg.Rank, err)
	}
}

// FuzzSetupDecode: whatever bytes arrive as a set-up blob, the decoder
// neither panics nor allocates beyond a small multiple of them — a forged
// nonzero count buys nothing — and what it accepts it accepts whole: no
// byte is left over, and the decoded configuration and tensor re-encode to
// a blob that decodes to the same pair.
func FuzzSetupDecode(f *testing.F) {
	cfg := runConfig{Rank: 3, MaxIter: 5, InitialSets: 1, Partitions: 2, GroupBits: 4, Seed: 9, Machines: 2}
	words := 8 * reflect.TypeOf(cfg).NumField()
	x := randomTensor(rand.New(rand.NewSource(6)), 6, 5, 4, 0.3)
	real := encodeSetup(x, cfg)
	f.Add(real)
	f.Add(real[:len(real)-1]) // cut inside the last entry
	// A count of 2^31 entries and none behind it.
	f.Add(append(slices.Clone(real[:words]), 'D', 'B', 'T', '1', 6, 5, 4, 0x80, 0x80, 0x80, 0x80, 0x08))
	// Two entries, the second before the first.
	f.Add(append(slices.Clone(real[:words]), 'D', 'B', 'T', '1', 6, 5, 4, 2, 1, 3, 2, 0, 1, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		var got runConfig
		var gx *tensor.Tensor
		var err error
		// A coordinate is three words for at least three bytes, and the sort
		// of an out-of-order blob works in place; the rest is fixed cost.
		bound := 64<<10 + 16*uint64(len(data))
		grew := ^uint64(0)
		for try := 0; try < 3 && grew > bound; try++ { // TotalAlloc is process-wide: believe the least
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got, gx, err = decodeSetup(data)
			runtime.ReadMemStats(&after)
			grew = min(grew, after.TotalAlloc-before.TotalAlloc)
		}
		if grew > bound {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		if gx.NNZ() > len(data)/3 {
			t.Fatalf("decoded %d nonzeros from %d bytes", gx.NNZ(), len(data))
		}
		again, ax, err := decodeSetup(encodeSetup(gx, got))
		if err != nil || again != got || !ax.Equal(gx) {
			t.Fatalf("decode(encode(decode(blob))) = %+v, %v; want %+v", again, err, got)
		}
	})
}

// TestDeltasCodecInsistsOnShape: the driver knows how many rows and lanes
// the stage it shipped must answer with, and an eval reply of any other
// shape — a one-lane reply to a three-lane stage, a short buffer, trailing
// bytes — or any value but the one minimal varint of an int32 lane is an
// error, never a mis-read.
func TestDeltasCodecInsistsOnShape(t *testing.T) {
	deltas := []int32{-3, 0, 7, math.MinInt32, math.MaxInt32, -1}
	three, one := appendDeltas(nil, deltas, 3), appendDeltas(nil, deltas, 1)
	got := make([]int32, len(deltas))
	if err := decodeDeltas(three, 2, 3, got); err != nil || !reflect.DeepEqual(got, deltas) {
		t.Fatalf("round trip of 2 rows × 3 lanes: %v, %v", got, err)
	}
	for name, tc := range map[string]struct {
		payload     []byte
		rows, lanes int
	}{
		"one lane answering a three-lane stage":  {one, 2, 3},
		"three lanes answering a one-lane stage": {three, 2, 1},
		"wrong row count":                        {three, 3, 3},
		"short buffer":                           {three[:len(three)-1], 2, 3},
		"trailing byte":                          {append(slices.Clone(three), 0), 2, 3},
		"header only":                            {three[:deltasHeaderLen], 2, 3},
		"cut header":                             {three[:deltasHeaderLen-1], 2, 3},
		"zero as a two-byte varint":              {append(deltasPayload(1, 1), 0x80, 0x00), 1, 1},
		"a lane past int32":                      {deltasPayload(1, 1, math.MaxInt32+1), 1, 1},
		"lane 2 past int32 after the add":        {deltasPayload(1, 3, 0, math.MinInt32, -1), 1, 3},
		"a varint past 64 bits":                  {append(deltasPayload(1, 1), bytes.Repeat([]byte{0xff}, 10)...), 1, 1},
	} {
		if err := decodeDeltas(tc.payload, tc.rows, tc.lanes, make([]int32, tc.rows*tc.lanes)); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

// TestRemoteBatchedWorkersMatchSimulated runs the remote differential
// over the per-machine batch path TCP uses: each machine receives its
// stage tasks as one RunBatch call (trial 2 under NoCache). Factors and
// trajectories must be bit-identical to the simulated run — the same
// guarantee the TCP transport inherits through transport.Host.
func TestRemoteBatchedWorkersMatchSimulated(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	for trial := 0; trial < 3; trial++ {
		i, j, k := rng.Intn(12)+4, rng.Intn(12)+4, rng.Intn(12)+4
		x := randomTensor(rng, i, j, k, 0.12)
		opt := Options{
			Rank:        rng.Intn(4) + 2,
			Seed:        int64(trial + 1),
			MaxIter:     3,
			Partitions:  rng.Intn(3) + 2,
			InitialSets: 2,
			NoCache:     trial == 2,
		}
		machines := rng.Intn(2) + 2

		sim, err := Decompose(context.Background(), x, testCluster(machines), opt)
		if err != nil {
			t.Fatalf("trial %d: simulated: %v", trial, err)
		}
		rem, err := Decompose(context.Background(), x,
			cluster.New(cluster.Config{Machines: machines, Transport: newBatchHostTransport(machines)}), opt)
		if err != nil {
			t.Fatalf("trial %d: remote: %v", trial, err)
		}
		if !rem.A.Equal(sim.A) || !rem.B.Equal(sim.B) || !rem.C.Equal(sim.C) {
			t.Fatalf("trial %d: batched remote factors differ from simulated", trial)
		}
		if rem.Error != sim.Error || rem.Iterations != sim.Iterations {
			t.Fatalf("trial %d: batched remote result %d/%d, simulated %d/%d",
				trial, rem.Error, rem.Iterations, sim.Error, sim.Iterations)
		}
		for it := range rem.IterationErrors {
			if rem.IterationErrors[it] != sim.IterationErrors[it] {
				t.Fatalf("trial %d: iteration %d error %d, simulated %d",
					trial, it, rem.IterationErrors[it], sim.IterationErrors[it])
			}
		}
	}
}

// TestWorkerBatchErrorAttribution pins the batch failure contract: a bad
// task inside an eval batch fails the whole batch with an error
// naming that task — the earliest offender in batch order — instead of
// surfacing as a connection-level failure or a partial reply.
func TestWorkerBatchErrorAttribution(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := randomTensor(rng, 8, 7, 6, 0.25)
	w := NewWorker()
	setup := encodeSetup(x, runConfig{Rank: 3, Partitions: 2, GroupBits: 4, Machines: 2})
	if err := w.Apply(transport.StateSetup, setup); err != nil {
		t.Fatal(err)
	}
	a := boolmat.RandomFactor(rng, 8, 3, 0.4)
	b := boolmat.RandomFactor(rng, 7, 3, 0.4)
	c := boolmat.RandomFactor(rng, 6, 3, 0.4)
	if err := w.Apply(transport.StateFactors, encodeFactors(a, b, c)); err != nil {
		t.Fatal(err)
	}
	spec := transport.Spec{Name: "eval:A", Kind: transport.KindEval, Mode: 0, Col: 1, Tasks: 2}

	// Tasks 7 and 9 are outside the 2-partition range; the earlier one in
	// batch order must be the one named.
	_, err := w.RunBatch(spec, []int{0, 7, 9})
	if err == nil {
		t.Fatal("batch with invalid tasks succeeded")
	}
	if got := err.Error(); !strings.Contains(got, "task 7") {
		t.Fatalf("batch error %q does not name task 7", got)
	}

	// The worker survives the failed batch: the valid half of the stage
	// still evaluates, with one output per task in batch order.
	outs, err := w.RunBatch(spec, []int{0, 1})
	if err != nil {
		t.Fatalf("valid batch after failure: %v", err)
	}
	if len(outs) != 2 || outs[0].Task != 0 || outs[1].Task != 1 {
		t.Fatalf("batch outputs %+v, want tasks [0 1]", outs)
	}
	for i, out := range outs {
		if len(out.Payload) == 0 {
			t.Fatalf("output %d has empty payload", i)
		}
		want, err := w.RunBatch(spec, []int{out.Task})
		if err != nil {
			t.Fatal(err)
		}
		if string(want[0].Payload) != string(out.Payload) {
			t.Fatalf("task %d: batch payload differs from a batch of one", out.Task)
		}
	}
}

// TestWorkerBuildsTaskAtFirstEvalOfAnyColumn pins the one rule of a column
// task's life on the executor side (executor.eval): a worker handed a
// partition mid-update — it holds the set-up, the factors and every column
// push, but was never asked for that partition — answers the stage of
// columns 4 and 5 with the same deltas as the worker that evaluated the
// stages of columns 0…5 in order. That is
// what a reassignment after a loss, a rejoin, and the ordinary first column
// of an update all rely on.
func TestWorkerBuildsTaskAtFirstEvalOfAnyColumn(t *testing.T) {
	const rank = 6
	rng := rand.New(rand.NewSource(9))
	x := randomTensor(rng, 9, 8, 7, 0.25)
	setup := encodeSetup(x, runConfig{Rank: rank, Partitions: 2, GroupBits: 4, Machines: 2})
	factors := encodeFactors(boolmat.RandomFactor(rng, 9, rank, 0.4),
		boolmat.RandomFactor(rng, 8, rank, 0.4), boolmat.RandomFactor(rng, 7, rank, 0.4))
	home, heir := NewWorker(), NewWorker()
	for _, w := range []*Worker{home, heir} {
		if err := w.Apply(transport.StateSetup, setup); err != nil {
			t.Fatal(err)
		}
		if err := w.Apply(transport.StateFactors, factors); err != nil {
			t.Fatal(err)
		}
	}
	const mode, part = 1, 1
	spec := transport.Spec{Name: "eval:B", Kind: transport.KindEval, Mode: mode, Tasks: 2}
	committed := boolmat.RandomFactor(rng, 8, rank, 0.5)
	for spec.Col = 0; spec.Col < rank-lookahead; spec.Col += lookahead {
		if _, err := home.RunBatch(spec, []int{part}); err != nil {
			t.Fatalf("column %d: %v", spec.Col, err)
		}
		// The driver commits the stage's columns everywhere, asked or not.
		for _, w := range []*Worker{home, heir} {
			if err := w.Apply(transport.StateColumn, encodeColumns(mode, spec.Col, lookahead, committed)); err != nil {
				t.Fatal(err)
			}
		}
	}
	want, err := home.RunBatch(spec, []int{part})
	if err != nil {
		t.Fatal(err)
	}
	got, err := heir.RunBatch(spec, []int{part})
	if err != nil {
		t.Fatalf("first eval on the heir: %v", err)
	}
	if string(got[0].Payload) != string(want[0].Payload) {
		t.Fatalf("the stage at column %d evaluated first on the heir differs from the home's, evaluated in order", spec.Col)
	}
}

// TestWorkerBuildsTwoTablesPerIteration counts the cache tables an iteration
// costs a machine, as distinct (matrix, version) pairs appearing in its
// registry between the iteration's stages: one over B for the A-update and
// one over the updated A for the B- and C-updates, on a Worker exactly as on
// the driver's executor running the same schedule on the simulator. A Worker
// gets fresh matrices with every iteration's factor push, so nothing it
// builds outlives the iteration: while an iteration ended on a total-error
// stage, the table that stage built over the just-updated B was the third of
// three and served nothing. The iteration counted is a steady-state one
// that changes A and B, as its predecessor did — otherwise the driver, whose
// matrices persist, reuses what a Worker must rebuild.
func TestWorkerBuildsTwoTablesPerIteration(t *testing.T) {
	const machines, rank, iters, steady = 2, 4, 4, 3
	rng := rand.New(rand.NewSource(17))
	planted, _, _, _ := gen.FromFactors(rng, 10, 9, 8, 5, 0.35)
	x := gen.AddNoise(rng, planted, 0.15, 0.15)
	opt := Options{Rank: rank, Seed: rank}
	type table struct {
		m       *boolmat.FactorMatrix
		version uint64
	}
	// builds runs iters iterations of the decomposition's schedule and
	// returns, per registry, the tables first seen during iteration steady.
	builds := func(ht *hostTransport) []map[table]bool {
		var d *decomposition
		registries := func() []*machineRegistry {
			if ht == nil {
				return d.ex.reg
			}
			regs := make([]*machineRegistry, machines)
			for m, h := range ht.hosts {
				regs[m] = h.(*Worker).ex.reg[0]
			}
			return regs
		}
		iteration := 0
		seen := make([]map[registryKey]bool, machines)
		built := make([]map[table]bool, machines)
		for m := range seen {
			seen[m], built[m] = map[registryKey]bool{}, map[table]bool{}
		}
		cc := cluster.Config{Machines: machines, Tracer: trace.New(sinkFunc(func(ev *trace.Event) {
			if ev.Type != trace.StageEnd || iteration == 0 {
				return
			}
			// Every task of the stage is joined; nothing else runs.
			for m, reg := range registries() {
				for key := range reg.entries {
					if !seen[m][key] && iteration == steady {
						built[m][table{key.m, key.version}] = true
					}
					seen[m][key] = true
				}
			}
		}))}
		if ht != nil {
			cc.Transport = ht
		}
		d = newTestDecompositionOn(t, x, opt, cluster.New(cc))
		defer d.ex.release()
		a, b, c := initialSet(rand.New(rand.NewSource(opt.Seed)), x, d.ex.cfg)
		for iteration = 1; iteration <= iters; iteration++ {
			va, vb := a.Version(), b.Version()
			if _, err := d.updateFactors(a, b, c); err != nil {
				t.Fatal(err)
			}
			if iteration == 1 {
				if _, err := d.totalError(); err != nil {
					t.Fatal(err)
				}
			}
			if iteration >= steady-1 && iteration <= steady && (a.Version() == va || b.Version() == vb) {
				t.Fatalf("iteration %d left A or B as it was: pick another seed", iteration)
			}
		}
		return built
	}
	driver, workers := builds(nil), builds(newHostTransport(machines))
	for m := 0; m < machines; m++ {
		if len(workers[m]) != 2 || len(driver[m]) != len(workers[m]) {
			t.Errorf("machine %d: iteration %d built %d tables on the worker and %d on the driver's executor, want 2 and 2",
				m, steady, len(workers[m]), len(driver[m]))
		}
	}
}

package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"dbtf"
	"dbtf/internal/bitvec"
	"dbtf/internal/boolmat"
	"dbtf/internal/cluster"
	"dbtf/internal/core"
	"dbtf/internal/partition"
	"dbtf/internal/serve"
	"dbtf/internal/sumcache"
	"dbtf/internal/tensor"
	"dbtf/internal/transport"
	"dbtf/internal/transport/tcp"
)

// countingTransport decorates the coordinator's Transport: it counts and
// times every PushState and Run the engine makes, sums the compute the
// workers report, and records a span per call.
type countingTransport struct {
	transport.Transport
	rec        *recorder
	op, parent int

	mu sync.Mutex
	transportCalls
}

// transportCalls is what the decorator counts.
type transportCalls struct {
	pushCalls, runCalls int64
	pushNanos, runNanos int64
	busyNanos           int64 // Σ TaskResult.Nanos: what the workers spent computing
	memberNanos         int64 // Membership: the liveness check before every stage
}

func (t *transportCalls) add(o transportCalls) {
	t.pushCalls += o.pushCalls
	t.runCalls += o.runCalls
	t.pushNanos += o.pushNanos
	t.runNanos += o.runNanos
	t.busyNanos += o.busyNanos
	t.memberNanos += o.memberNanos
}

func (c *countingTransport) Membership(ctx context.Context) []transport.LivenessEvent {
	t0 := time.Now()
	events := c.Transport.Membership(ctx)
	d := time.Since(t0)
	c.mu.Lock()
	c.memberNanos += d.Nanoseconds()
	c.mu.Unlock()
	return events
}

func (c *countingTransport) PushState(ctx context.Context, kind transport.StateKind, payload []byte) error {
	id := c.rec.begin("transport.push:"+kind.String(), c.parent, c.op)
	t0 := time.Now()
	err := c.Transport.PushState(ctx, kind, payload)
	d := time.Since(t0)
	c.rec.end(id)
	c.mu.Lock()
	c.pushCalls++
	c.pushNanos += d.Nanoseconds()
	c.mu.Unlock()
	return err
}

func (c *countingTransport) Run(ctx context.Context, spec transport.Spec, deliver func(transport.TaskResult) error) error {
	id := c.rec.begin("transport.run:"+spec.Kind.String(), c.parent, c.op)
	var busy int64
	t0 := time.Now()
	err := c.Transport.Run(ctx, spec, func(r transport.TaskResult) error {
		busy += r.Nanos // deliver is called sequentially
		return deliver(r)
	})
	d := time.Since(t0)
	c.rec.end(id)
	c.mu.Lock()
	c.runCalls++
	c.runNanos += d.Nanoseconds()
	c.busyNanos += busy
	c.mu.Unlock()
	return err
}

// transportProbe runs the workload's variants over two loopback workers
// with the decorator between the coordinator and the engine —
// tcp.DialContext → decorator → cluster.New → core.Decompose, the lines
// dbtf.Factorize itself runs — so the time of an op splits into worker
// compute, push and run round trips, and the rest.
func transportProbe(ctx context.Context, m map[string]metric, rec *recorder, e *env, ref *engine, window time.Duration) (_ []outcome, err error) {
	const workers = 2
	f, err := e.Host.start(workers)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, f.stop()) }()

	var dial, overhead []float64
	var wire, formula, ops float64
	var total transportCalls
	outs := closedLoop(ctx, window, probeOps, len(ref.variants), func(i, vi int) outcome {
		root := rec.begin("transport.op", -1, i)
		defer rec.end(root)
		start := time.Now()
		co, err := tcp.DialContext(ctx, tcp.Config{Addrs: f.Addrs})
		if err != nil {
			return outcome{Variant: vi, Err: err}
		}
		dial = append(dial, ms(time.Since(start).Nanoseconds()))
		ct := &countingTransport{Transport: co, rec: rec, op: i, parent: root}
		cl := cluster.New(cluster.Config{Machines: workers, Transport: ct})
		v := ref.variants[vi]
		res, err := core.Decompose(ctx, ref.xs[v.Input], cl, core.Options{
			Rank: ref.w.Rank, MaxIter: ref.w.Iters, MinIter: ref.w.Iters, Seed: v.Seed,
		})
		sent, recvd := co.WireBytes()
		if cerr := co.Close(); err == nil {
			err = cerr
		}
		o := outcome{Variant: vi, Wall: time.Since(start), Err: err}
		if err != nil {
			return o
		}
		o.Sim, o.Hash = res.SimTime, serve.FactorHash(res.A, res.B, res.C)
		o.Traffic, o.Stages = formulaBytes(res.Stats), res.Stats.Stages
		o.RelErr = float64(res.Error) / float64(ref.xs[v.Input].NNZ())
		ops++
		wire += float64(sent + recvd)
		formula += float64(o.Traffic)
		total.add(ct.transportCalls)
		// What worker compute cannot explain, had the workers shared it
		// perfectly: serialisation, round trips, the driver.
		overhead = append(overhead, ms(o.Wall.Nanoseconds()-ct.busyNanos/workers))
		return o
	})
	if ops == 0 {
		return outs, fmt.Errorf("transport probe: no op succeeded: %w", outs[0].Err)
	}
	m["transport.dial_ms"] = metric{minOf(dial), "ms"}
	m["transport.push_calls_per_op"] = metric{float64(total.pushCalls) / ops, "count"}
	m["transport.run_calls_per_op"] = metric{float64(total.runCalls) / ops, "count"}
	m["transport.push_ms_per_op"] = metric{ms(total.pushNanos) / ops, "ms"}
	m["transport.run_ms_per_op"] = metric{ms(total.runNanos) / ops, "ms"}
	m["transport.membership_ms_per_op"] = metric{ms(total.memberNanos) / ops, "ms"}
	m["transport.worker_busy_ms_per_op"] = metric{ms(total.busyNanos) / ops, "ms"}
	m["transport.overhead_ms_per_op"] = metric{mean(overhead), "ms"}
	m["transport.wire_bytes_per_op"] = metric{wire / ops, "B"}
	m["transport.wire_over_formula_ratio"] = metric{wire / formula, "ratio"}

	// One frame of the wire codec with a 4 KiB payload, the size of a
	// column's delta vector on the workloads' dimensions.
	msg := &transport.Msg{Type: transport.MsgResult, Outputs: []transport.TaskOutput{{Task: 1, Nanos: 12345, Payload: make([]byte, 4096)}}}
	var frame bytes.Buffer
	m["transport.frame_encode_ns"] = metric{bestBatch(func(n int) {
		for i := 0; i < n; i++ {
			frame.Reset()
			if _, err := transport.WriteFrame(&frame, msg); err != nil {
				panic(err) // a bytes.Buffer cannot fail and msg is a constant
			}
		}
	}), "ns"}
	encoded := append([]byte(nil), frame.Bytes()...)
	m["transport.frame_decode_ns"] = metric{bestBatch(func(n int) {
		for i := 0; i < n; i++ {
			if _, _, err := transport.ReadFrame(bytes.NewReader(encoded), 0); err != nil {
				panic(err) // the frame was written two lines up
			}
		}
	}), "ns"}
	return outs, nil
}

// serveProbe pushes the workload's inputs through the job server in an
// open loop at the workload's gap and splits each job's latency into
// acknowledgement, queue wait and service. refBest is the bare
// Factorize's best time for the same specs, taken in the same run.
func serveProbe(ctx context.Context, m map[string]metric, e *env, w workload, in *inputs, refBest float64, window time.Duration) (_ []outcome, err error) {
	s, err := startService(ctx, w, in, e.Scratch)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, s.close()) }()
	jobs, err := s.openLoop(ctx, in, window, w.Gap, probeOps)
	if err != nil {
		return nil, err
	}
	var stats serve.Stats
	if err := s.get(ctx, "/v1/stats", &stats); err != nil {
		return nil, err
	}
	var ack, queue, service, latency, late []float64
	var variant []int
	for _, j := range jobs {
		late = append(late, ms(j.Late.Nanoseconds()))
		if j.Err != nil {
			continue
		}
		ack = append(ack, ms(j.Ack.Nanoseconds()))
		queue = append(queue, ms(j.Queue.Nanoseconds()))
		service = append(service, ms(j.Service.Nanoseconds()))
		latency = append(latency, ms(j.Wall.Nanoseconds()))
		variant = append(variant, j.Variant)
	}
	if len(service) == 0 {
		return jobOutcomes(jobs), fmt.Errorf("serve probe: no job succeeded: %w", jobs[0].Err)
	}
	var shed int64
	for _, n := range stats.Shed {
		shed += n
	}
	serviceBest := bestPerVariant(service, variant, len(in.Variants))
	m["serve.upload_ms"] = metric{ms(s.UploadTime.Nanoseconds()), "ms"}
	m["serve.submit_ack_ms_p50"] = metric{median(ack), "ms"}
	m["serve.queue_wait_ms_p50"] = metric{median(queue), "ms"}
	m["serve.service_ms_best"] = metric{serviceBest, "ms"}
	m["serve.service_ms_p50"] = metric{median(service), "ms"}
	m["serve.overhead_ms_best"] = metric{serviceBest - refBest, "ms"}
	m["serve.latency_ms_p50"] = metric{median(latency), "ms"}
	m["serve.latency_ms_p90"] = metric{quantile(latency, 0.9), "ms"}
	m["serve.gen_late_ms_max"] = metric{maxOf(late), "ms"}
	// Shed submissions and evictions as ratios of the server's own
	// counters, so that the healthy reading is 1 and not 0.
	admitted := float64(stats.Admitted)
	m["serve.admitted_ratio"] = metric{admitted / (admitted + float64(shed)), "ratio"}
	m["serve.runs_per_job"] = metric{(admitted + float64(stats.Evictions)) / admitted, "ratio"}
	return jobOutcomes(jobs), nil
}

// bestBatch times run(n) in batches of at least 10 ms and returns the
// best batch's nanoseconds per call, over 20 batches: the floor of a
// kernel's cost, with the host's interruptions discarded.
func bestBatch(run func(n int)) float64 {
	n := 1
	for {
		t0 := time.Now()
		run(n)
		if time.Since(t0) >= 10*time.Millisecond {
			break
		}
		n *= 2
	}
	best := math.Inf(1)
	for b := 0; b < 20; b++ {
		t0 := time.Now()
		run(n)
		best = math.Min(best, float64(time.Since(t0).Nanoseconds()))
	}
	return best / float64(n)
}

// sink keeps the kernels' results alive so the compiler cannot drop the
// calls being timed.
var sink int64

// kernelProbes times the word kernels and the cache directly, on fixed
// synthetic operands of the workloads' shapes (a 256-wide PVM block is
// four words; rank 16 splits the cache into two groups, so deltas carry
// an occlusion list). They are the same in every workload's traced run:
// what moves them is the kernel, not the input.
func kernelProbes(m map[string]metric) error {
	rng := rand.New(rand.NewSource(1))
	const kword = 1024
	words := func() []uint64 {
		ws := make([]uint64, kword)
		for i := range ws {
			ws[i] = rng.Uint64()
		}
		return ws
	}
	x, w1, w0, occ := words(), words(), words(), [][]uint64{words()}
	m["bitvec.gaincounts_ns_per_kword"] = metric{bestBatch(func(n int) {
		for i := 0; i < n; i++ {
			//dbtf:samewidth every operand comes from words(): kword words
			g, o := bitvec.GainCountsWords(x, w1, w0, occ)
			sink += int64(g + o)
		}
	}), "ns"}
	m["bitvec.andcount_ns_per_kword"] = metric{bestBatch(func(n int) {
		for i := 0; i < n; i++ {
			//dbtf:samewidth both operands come from words(): kword words
			sink += int64(bitvec.AndCountWords(x, w1))
		}
	}), "ns"}

	const dim, rank = 256, 16
	factor := boolmat.RandomFactor(rng, dim, rank, 0.10)
	m["sumcache.build_us"] = metric{bestBatch(func(n int) {
		for i := 0; i < n; i++ {
			c := sumcache.NewFromFactor(factor, 0)
			sink += int64(c.Entries())
			c.Release()
		}
	}) / 1e3, "us"}

	cache := sumcache.NewFromFactor(factor, 0)
	m["sumcache.sumdelta_ns"] = metric{sumDeltaNanos(rng, cache, rank), "ns"}
	// The skip path: on an unplanted random tensor DBTF converges to
	// near-empty factors, and almost every delta is decided empty from two
	// cached popcounts.
	sparse := boolmat.RandomFactor(rng, dim, rank, 0.002)
	m["sumcache.sumdelta_empty_ns"] = metric{sumDeltaNanos(rng, sumcache.NewFromFactor(sparse, 0), rank), "ns"}

	// Block.DeltaError on a dense block (packed rows, word kernels) and a
	// sparse one (offset walk), against the same cache.
	var d sumcache.Delta
	for d.Empty() || len(d.Occ) == 0 {
		cache.SumDelta(rng.Uint64()&(1<<rank-1)&^1, 1, &d)
	}
	for _, b := range []struct {
		name    string
		density float64
		dense   bool
	}{{"partition.deltaerror_dense_ns_per_row", 0.05, true}, {"partition.deltaerror_sparse_ns_per_row", 0.004, false}} {
		t := dbtf.RandomTensor(rng, dim, dim, 16, b.density)
		blocks := partition.Build(t.Unfold(tensor.Mode1), 1).Parts[0].Blocks
		for _, blk := range blocks {
			if blk.Dense() != b.dense {
				return fmt.Errorf("%s: a block of density %.3f has dense=%v", b.name, b.density, blk.Dense())
			}
		}
		m[b.name] = metric{bestBatch(func(n int) {
			for i := 0; i < n; i++ {
				blk := blocks[i%len(blocks)]
				for r := 0; r < dim; r++ {
					sink += blk.DeltaError(r, &d)
				}
			}
		}) / dim, "ns"}
	}
	return nil
}

// sumDeltaNanos times Cache.SumDelta over a fixed cycle of random masks.
func sumDeltaNanos(rng *rand.Rand, cache *sumcache.Cache, rank int) float64 {
	masks := make([]uint64, 4096)
	for i := range masks {
		masks[i] = rng.Uint64() & (1<<rank - 1) &^ 1
	}
	var d sumcache.Delta
	return bestBatch(func(n int) {
		for i := 0; i < n; i++ {
			cache.SumDelta(masks[i%len(masks)], 1, &d)
			sink += int64(d.Pop)
		}
	})
}

package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"

	"dbtf/internal/boolmat"
	"dbtf/internal/cluster"
	"dbtf/internal/gen"
	"dbtf/internal/tensor"
)

// factorHash mirrors serve.FactorHash (which core cannot import): FNV-1a
// over the binary encodings of A, B, C.
func factorHash(a, b, c *boolmat.FactorMatrix) string {
	h := fnv.New64a()
	for _, m := range []*boolmat.FactorMatrix{a, b, c} {
		h.Write(m.AppendBinary(nil))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestGoldenRunPin pins runs of one fixed planted tensor to constants
// recorded at commit 63ca3f8, before core's two execution paths were folded
// into one executor. The differentials elsewhere prove the backends agree
// with each other; only this proves they still agree with what the repo
// computed before — the factors bit for bit, the error trajectory, and the
// stage schedule and Lemma 6–7 traffic the benchmark's stages_per_op,
// traffic_mb_per_op and relative_error are read from. A deliberate change
// to the algorithm re-records the constants; a refactor must not move them.
// {stages, tasks} — and nothing else — were re-recorded (49, 195 → 40, 159;
// 81, 323 → 66, 263) when the build round left the schedule: three stages
// of four tasks fewer per factor set per iteration; {stages, tasks,
// collected} again (40, 159, 23136 → 22, 87, 17376; 66, 263, 38560 → 36,
// 143, 28960; 27, 107, 15424 → 15, 59, 11584) when one eval stage came to
// decide two columns: at rank 4 a factor update is two rounds where it was
// four, and a round collects three int32 lanes a row where two columns
// collected two int64; and {stages, tasks, collected} once more (22, 87,
// 17376 → 20, 79, 17312; 36, 143, 28960 → 33, 131, 28864; 15, 59, 11584 →
// 14, 55, 11552) when the total-error stage left every iteration after the
// first: one stage of four tasks and 8·4 collected bytes fewer per later
// iteration, the objective being carried through the commits instead; and
// {collected} alone (17312 → 4352, 28864 → 7264, 11552 → 2912) when an eval
// reply came to carry its lanes as zigzag varints, not int32; and
// {collected} alone again (4352 → 2606, 7264 → 4358, 4352 → 2949 for
// topfiber, 2912 → 2044) when a reply came to carry its row groups' bases
// and the rows with hits wherever that is smaller; and {shuffled} alone
// (24360 → 2250) when the shuffle came to be charged at the exact set-up
// bodies of the partitions, varint rows, where it had been 12 bytes a
// nonzero and 4 a row; and {shuffled} alone again (2250 → 1371) when the
// mode-2 and mode-3 bodies came to leave out the nonzeros the same
// machine's mode-1 bodies carry; and {shuffled} alone a third time
// (1371 → 581) when a body's counts and gaps came to be Exp-Golomb codes,
// the gaps' order set by the row's density, not byte-aligned varints; and
// {collected} alone a fourth time (2606 → 1118, 4358 → 2253, 2949 → 1843,
// 2044 → 1252) when a reply came to carry Exp-Golomb codes, not varints,
// and a stage three columns: at rank 4 an update is two rounds at span 2
// or 3, so the stage count did not move; and {collected} alone a fifth
// time (1118 → 1013, 2253 → 1994, 1843 → 1518, 1252 → 1014) when a reply
// came to carry the rows' hits and the region sizes the driver rebuilds
// the bases from, not the bases; and {broadcast} alone (270 → 174, 450 →
// 267, 270 → 186 for topfiber, 180 → 99) when the factors came to be
// broadcast once per install, not per iteration, and each stage to push
// only the entries its commit flipped, priced at the push's body. The
// factors and the error trajectory are those of the one-column schedule
// with a recount every iteration, which is why nothing else moved.
func TestGoldenRunPin(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	planted, _, _, _ := gen.FromFactors(rng, 24, 20, 16, 4, 0.3)
	x := gen.AddNoise(rng, planted, 0.10, 0.05)

	// The fingerprint names a run's checkpoint file, so it is part of what a
	// data directory written by the previous build expects of this one. It
	// hashes one word per runConfig field and so was re-recorded (from
	// 0xc412bd1ff0934356) when the struct went from 12 fields to 11: a
	// checkpoint an older build wrote is not found and its job restarts at
	// iteration 0. It was re-recorded again (from 0x3507ce951e13bb16) when
	// the uncached ablation's flag left the struct, 11 fields to 10.
	if fp := runFingerprint(t, x, Options{Rank: 4, Seed: 7, Partitions: 4, Init: InitTopFiber}, 3); fp != 0x152a97add6f7bd76 {
		t.Errorf("fingerprint %#x, recorded 0x152a97add6f7bd76", fp)
	}

	type stats struct{ stages, tasks, shuffled, broadcast, collected int64 }
	for _, tc := range []struct {
		name string
		opt  Options
		hash string
		errs []int64
		want stats
	}{
		{"fiber", Options{Init: InitFiberSample},
			"38208a0e4136f71d", []int64{384, 296, 296}, stats{20, 79, 581, 174, 1013}},
		{"fiber two sets", Options{Init: InitFiberSample, InitialSets: 2, MinIter: 4, MaxIter: 5},
			"1312fa644885e579", []int64{213, 213, 213, 213}, stats{33, 131, 581, 267, 1994}},
		{"topfiber", Options{Init: InitTopFiber},
			"56ce5200deec1a1d", []int64{297, 94, 94}, stats{20, 79, 581, 186, 1518}},
		{"random", Options{Init: InitRandom},
			"1fe8a3701ba4447d", []int64{94, 94}, stats{14, 55, 581, 99, 1014}},
	} {
		// V = 1 caches no summation of two or more columns: its rows hold
		// the uncached ablation to the same records.
		for _, v := range []int{0, 1} {
			for _, backend := range []string{"simulator", "hostTransport"} {
				opt := tc.opt
				opt.Rank, opt.Seed, opt.Partitions, opt.GroupBits = 4, 7, 4, v
				cfg := cluster.Config{Machines: 3}
				if backend == "hostTransport" {
					cfg.Transport = newHostTransport(3)
				}
				res, err := Decompose(context.Background(), x, cluster.New(cfg), opt)
				if err != nil {
					t.Fatalf("%s V=%d %s: %v", tc.name, v, backend, err)
				}
				s := res.Stats
				got := stats{s.Stages, s.Tasks, s.ShuffledBytes, s.BroadcastBytes, s.CollectedBytes}
				if h := factorHash(res.A, res.B, res.C); h != tc.hash || !reflect.DeepEqual(res.IterationErrors, tc.errs) || got != tc.want {
					t.Errorf("%s V=%d %s: hash %s errors %v stats %+v, recorded %s %v %+v",
						tc.name, v, backend, h, res.IterationErrors, got, tc.hash, tc.errs, tc.want)
				}
			}
		}
	}
}

// TestEvalWorkPin pins the work eval does — Block.Hits calls, SumDelta
// lookups and cache tables built, summed over every worker of a run on the
// in-process transport — on two fixed inputs: the Facebook stand-in at scale
// 0.25, seed 7 (the CI TCP smoke's sparse input, with its flags), and
// TestGoldenRunPin's random row. A change to how the partitions are built
// must leave these exactly where they are; a change to how eval walks them
// re-records them.
func TestEvalWorkPin(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	planted, _, _, _ := gen.FromFactors(rng, 24, 20, 16, 4, 0.3)
	golden := gen.AddNoise(rng, planted, 0.10, 0.05)
	type work struct{ hits, lookups, builds int }
	for _, tc := range []struct {
		name     string
		x        *tensor.Tensor
		machines int
		opt      Options
		want     work
	}{
		{"facebook", gen.Facebook(rand.New(rand.NewSource(7)), 0.25).X, 2,
			Options{Rank: 5, MaxIter: 3, Seed: 7}, work{6980, 138, 8}},
		{"golden random", golden, 3,
			Options{Rank: 4, Seed: 7, Partitions: 4, Init: InitRandom}, work{2856, 270, 9}},
	} {
		ht := newHostTransport(tc.machines)
		if _, err := Decompose(context.Background(), tc.x, cluster.New(cluster.Config{Machines: tc.machines, Transport: ht}), tc.opt); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var got work
		for _, h := range ht.hosts {
			ex := h.(*Worker).ex
			for _, tasks := range ex.tasks {
				for _, ct := range tasks {
					if ct != nil {
						got.hits += ct.hits
						got.lookups += ct.lookups
					}
				}
			}
			got.builds += ex.reg[0].builds
		}
		if got != tc.want {
			t.Errorf("%s: %+v, recorded %+v", tc.name, got, tc.want)
		}
	}
}

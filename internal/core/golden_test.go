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
// reply came to carry its lanes as zigzag varints, not int32. The factors
// and the error trajectory are those of the one-column schedule with a
// recount every iteration, which is why nothing else moved.
func TestGoldenRunPin(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	planted, _, _, _ := gen.FromFactors(rng, 24, 20, 16, 4, 0.3)
	x := gen.AddNoise(rng, planted, 0.10, 0.05)

	// The fingerprint names a run's checkpoint file, so it is part of what a
	// data directory written by the previous build expects of this one. It
	// hashes one word per runConfig field and so was re-recorded (from
	// 0xc412bd1ff0934356) when the struct went from 12 fields to 11: a
	// checkpoint an older build wrote is not found and its job restarts at
	// iteration 0.
	if fp := runFingerprint(t, x, Options{Rank: 4, Seed: 7, Partitions: 4, Init: InitTopFiber}, 3); fp != 0x3507ce951e13bb16 {
		t.Errorf("fingerprint %#x, recorded 0x3507ce951e13bb16", fp)
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
			"38208a0e4136f71d", []int64{384, 296, 296}, stats{20, 79, 24360, 270, 4352}},
		{"fiber two sets", Options{Init: InitFiberSample, InitialSets: 2, MinIter: 4, MaxIter: 5},
			"1312fa644885e579", []int64{213, 213, 213, 213}, stats{33, 131, 24360, 450, 7264}},
		{"topfiber", Options{Init: InitTopFiber},
			"56ce5200deec1a1d", []int64{297, 94, 94}, stats{20, 79, 24360, 270, 4352}},
		{"random", Options{Init: InitRandom},
			"1fe8a3701ba4447d", []int64{94, 94}, stats{14, 55, 24360, 180, 2912}},
	} {
		for _, noCache := range []bool{false, true} {
			for _, backend := range []string{"simulator", "hostTransport"} {
				opt := tc.opt
				opt.Rank, opt.Seed, opt.Partitions, opt.NoCache = 4, 7, 4, noCache
				cfg := cluster.Config{Machines: 3}
				if backend == "hostTransport" {
					cfg.Transport = newHostTransport(3)
				}
				res, err := Decompose(context.Background(), x, cluster.New(cfg), opt)
				if err != nil {
					t.Fatalf("%s noCache=%v %s: %v", tc.name, noCache, backend, err)
				}
				s := res.Stats
				got := stats{s.Stages, s.Tasks, s.ShuffledBytes, s.BroadcastBytes, s.CollectedBytes}
				if h := factorHash(res.A, res.B, res.C); h != tc.hash || !reflect.DeepEqual(res.IterationErrors, tc.errs) || got != tc.want {
					t.Errorf("%s noCache=%v %s: hash %s errors %v stats %+v, recorded %s %v %+v",
						tc.name, noCache, backend, h, res.IterationErrors, got, tc.hash, tc.errs, tc.want)
				}
			}
		}
	}
}

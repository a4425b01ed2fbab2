package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"dbtf/internal/boolmat"
	"dbtf/internal/cluster"
	"dbtf/internal/tensor"
	"dbtf/internal/trace"
)

// runFingerprint is the fingerprint Decompose binds the checkpoints of a run
// under opts on a machines-machine cluster to: the options resolved exactly
// as Decompose resolves them, hashed with the tensor.
func runFingerprint(t *testing.T, x *tensor.Tensor, opts Options, machines int) uint64 {
	t.Helper()
	cfg, err := opts.withDefaults(machines)
	if err != nil {
		t.Fatal(err)
	}
	return fingerprint(x, cfg)
}

func testCheckpoint() *checkpoint {
	rng := rand.New(rand.NewSource(5))
	return &checkpoint{
		Fingerprint:     0xdeadbeefcafef00d,
		Iteration:       3,
		Converged:       true,
		PrevErr:         42,
		InitialErrors:   []int64{99, 77},
		IterationErrors: []int64{77, 60, 42},
		A:               boolmat.RandomFactor(rng, 10, 4, 0.3),
		B:               boolmat.RandomFactor(rng, 8, 4, 0.3),
		C:               boolmat.RandomFactor(rng, 6, 4, 0.3),
	}
}

func checkpointsEqual(a, b *checkpoint) bool {
	if a.Fingerprint != b.Fingerprint || a.Iteration != b.Iteration ||
		a.Converged != b.Converged || a.PrevErr != b.PrevErr {
		return false
	}
	for _, p := range [][2][]int64{{a.InitialErrors, b.InitialErrors}, {a.IterationErrors, b.IterationErrors}} {
		if len(p[0]) != len(p[1]) {
			return false
		}
		for i := range p[0] {
			if p[0][i] != p[1][i] {
				return false
			}
		}
	}
	return a.A.Equal(b.A) && a.B.Equal(b.B) && a.C.Equal(b.C)
}

func TestCheckpointRoundtrip(t *testing.T) {
	ck := testCheckpoint()
	got, err := decodeCheckpoint(ck.encode())
	if err != nil {
		t.Fatal(err)
	}
	if !checkpointsEqual(ck, got) {
		t.Fatalf("roundtrip mismatch:\n%+v\n%+v", ck, got)
	}
}

// TestCheckpointEncodedAtExactSize: the image is one allocation of exactly
// its length, byte for byte the layout the format documents — here spelled
// out field by field by appending, as the encoder did before it was sized.
func TestCheckpointEncodedAtExactSize(t *testing.T) {
	for _, ck := range []*checkpoint{testCheckpoint(), {Iteration: 1, IterationErrors: []int64{0},
		A: boolmat.NewFactor(0, 1), B: boolmat.NewFactor(1, 1), C: boolmat.NewFactor(2, 1)}} {
		le := binary.LittleEndian
		want := le.AppendUint64(append([]byte(nil), checkpointMagic[:]...), ck.Fingerprint)
		want = le.AppendUint32(want, uint32(ck.Iteration))
		want = append(want, 0)
		if ck.Converged {
			want[len(want)-1] = 1
		}
		want = le.AppendUint64(want, uint64(ck.PrevErr))
		for _, errs := range [][]int64{ck.InitialErrors, ck.IterationErrors} {
			want = le.AppendUint32(want, uint32(len(errs)))
			for _, e := range errs {
				want = le.AppendUint64(want, uint64(e))
			}
		}
		want = ck.C.AppendBinary(ck.B.AppendBinary(ck.A.AppendBinary(want)))
		want = le.AppendUint32(want, crc32.ChecksumIEEE(want))
		got := ck.encode()
		if string(got) != string(want) || cap(got) != len(got) {
			t.Errorf("image of %d bytes (capacity %d), want the %d documented bytes at capacity %d", len(got), cap(got), len(want), len(want))
		}
	}
}

func TestCheckpointDecodeRejectsCorruption(t *testing.T) {
	valid := testCheckpoint().encode()
	cases := map[string][]byte{
		"empty":     {},
		"too short": valid[:8],
		"truncated": valid[:len(valid)-9],
		"trailing":  append(append([]byte(nil), valid...), 0, 1, 2, 3),
	}
	for i := 0; i < len(valid); i += 7 {
		c := append([]byte(nil), valid...)
		c[i] ^= 0x40
		cases[fmt.Sprintf("bit flip at %d", i)] = c
	}
	for name, data := range cases {
		if _, err := decodeCheckpoint(data); err == nil {
			t.Errorf("%s: corrupt checkpoint decoded without error", name)
		}
	}
}

func TestWriteCheckpointAtomicReplace(t *testing.T) {
	dir := t.TempDir()
	first := testCheckpoint()
	if _, err := writeCheckpoint(dir, first); err != nil {
		t.Fatal(err)
	}
	second := testCheckpoint()
	second.Iteration = 4
	second.PrevErr = 30
	second.IterationErrors = append(second.IterationErrors, 30)
	n, err := writeCheckpoint(dir, second)
	if err != nil {
		t.Fatal(err)
	}
	got, err := readCheckpoint(dir, second.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if !checkpointsEqual(second, got) {
		t.Fatal("read checkpoint is not the latest written one")
	}
	name := CheckpointFileName(second.Fingerprint)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != name {
		t.Fatalf("directory holds %v, want only %s (no temp files)", entries, name)
	}
	if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() != n {
		t.Fatalf("checkpoint size %v (err %v), recorded %d", fi, err, n)
	}
}

func TestReadCheckpointMissingIsFreshStart(t *testing.T) {
	ck, err := readCheckpoint(t.TempDir(), 0xabc)
	if err != nil || ck != nil {
		t.Fatalf("readCheckpoint(empty dir) = %v, %v; want nil, nil", ck, err)
	}
}

func TestCheckpointOptionValidation(t *testing.T) {
	cl := testCluster(2)
	x := randomTensor(rand.New(rand.NewSource(1)), 4, 4, 4, 0.2)
	for name, opt := range map[string]Options{
		"resume without dir": {Rank: 2, Resume: true},
		"every without dir":  {Rank: 2, CheckpointEvery: 2},
		"negative every":     {Rank: 2, CheckpointDir: t.TempDir(), CheckpointEvery: -1},
	} {
		if _, err := Decompose(context.Background(), x, cl, opt); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

// resultsEqual compares everything a bit-identical resume must reproduce.
func resultsEqual(a, b *Result) bool {
	if a.Error != b.Error || a.Iterations != b.Iterations || a.Converged != b.Converged ||
		!a.A.Equal(b.A) || !a.B.Equal(b.B) || !a.C.Equal(b.C) ||
		len(a.InitialErrors) != len(b.InitialErrors) || len(a.IterationErrors) != len(b.IterationErrors) {
		return false
	}
	for i := range a.InitialErrors {
		if a.InitialErrors[i] != b.InitialErrors[i] {
			return false
		}
	}
	for i := range a.IterationErrors {
		if a.IterationErrors[i] != b.IterationErrors[i] {
			return false
		}
	}
	return true
}

// killAtCheckpoint returns a 4-machine cluster that cancels its run right
// after the k-th checkpoint is durable — iteration k's, under
// CheckpointEvery 1. The next stage boundary observes the cancellation.
func killAtCheckpoint(k int, cancel context.CancelFunc) *cluster.Cluster {
	written := 0
	return tracedCluster(4, func(ev *trace.Event) {
		if ev.Type == trace.Checkpoint {
			if written++; written == k {
				cancel()
			}
		}
	})
}

func TestKillAtCheckpointThenResumeBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x, _, _, _ := plantedTensor(rng, 14, 12, 10, 3, 0.3)
	base := Options{Rank: 3, MaxIter: 6, MinIter: 6, InitialSets: 2, Seed: 21, CheckpointEvery: 1}

	opt := base
	opt.CheckpointDir = t.TempDir()
	uninterrupted, err := Decompose(context.Background(), x, testCluster(4), opt)
	if err != nil {
		t.Fatal(err)
	}

	for _, k := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("kill after iteration %d", k), func(t *testing.T) {
			opt := base
			opt.CheckpointDir = t.TempDir()
			// Kill the run right after the checkpoint for iteration k is
			// durable: the trace sink cancels the context, and the next
			// stage boundary observes it.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if _, err := Decompose(ctx, x, killAtCheckpoint(k, cancel), opt); !errors.Is(err, context.Canceled) {
				t.Fatalf("killed run returned %v, want context.Canceled", err)
			}
			fp := runFingerprint(t, x, opt, 4)
			ck, err := readCheckpoint(opt.CheckpointDir, fp)
			if err != nil || ck == nil || ck.Iteration != k {
				t.Fatalf("latest checkpoint after kill: %+v, %v; want iteration %d", ck, err, k)
			}

			opt.Resume = true
			resumed, err := Decompose(context.Background(), x, testCluster(4), opt)
			if err != nil {
				t.Fatal(err)
			}
			if !resultsEqual(uninterrupted, resumed) {
				t.Fatalf("resumed run differs from uninterrupted:\nuninterrupted: err=%d iters=%d errors=%v\nresumed:       err=%d iters=%d errors=%v",
					uninterrupted.Error, uninterrupted.Iterations, uninterrupted.IterationErrors,
					resumed.Error, resumed.Iterations, resumed.IterationErrors)
			}
		})
	}
}

func TestResumeMissingCheckpointStartsFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x, _, _, _ := plantedTensor(rng, 10, 10, 10, 2, 0.3)
	opt := Options{Rank: 2, MaxIter: 3, MinIter: 3, Seed: 5, CheckpointDir: t.TempDir(), Resume: true}
	fresh, err := Decompose(context.Background(), x, testCluster(2), opt)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Decompose(context.Background(), x, testCluster(2), Options{Rank: 2, MaxIter: 3, MinIter: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(fresh, plain) {
		t.Fatal("resume from a missing checkpoint must run fresh and match a plain run")
	}
}

func TestResumeRejectsFingerprintMismatch(t *testing.T) {
	// A checkpoint file's name carries its run's identity, but the image is
	// what is trusted: an image written under another config that ends up
	// under this run's name (a copied directory, a renamed file) must be
	// refused explicitly, not continued.
	rng := rand.New(rand.NewSource(11))
	x, _, _, _ := plantedTensor(rng, 10, 10, 10, 2, 0.3)
	dir := t.TempDir()
	opt := Options{Rank: 2, MaxIter: 3, MinIter: 3, Seed: 5, CheckpointDir: dir}
	if _, err := Decompose(context.Background(), x, testCluster(2), opt); err != nil {
		t.Fatal(err)
	}
	fpOld := runFingerprint(t, x, opt, 2)
	opt.Seed = 6
	opt.Resume = true
	fpNew := runFingerprint(t, x, opt, 2)
	if err := os.Rename(filepath.Join(dir, CheckpointFileName(fpOld)),
		filepath.Join(dir, CheckpointFileName(fpNew))); err != nil {
		t.Fatal(err)
	}
	_, err := Decompose(context.Background(), x, testCluster(2), opt)
	if err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("resume under a changed config returned %v, want fingerprint mismatch", err)
	}
}

func TestResumeChangedConfigStartsFreshNamespace(t *testing.T) {
	// With fingerprint-namespaced files a changed config simply has no
	// checkpoint of its own yet: it starts fresh in its own lineage and
	// must not disturb the original run's file.
	rng := rand.New(rand.NewSource(11))
	x, _, _, _ := plantedTensor(rng, 10, 10, 10, 2, 0.3)
	dir := t.TempDir()
	opt := Options{Rank: 2, MaxIter: 3, MinIter: 3, Seed: 5, CheckpointDir: dir}
	if _, err := Decompose(context.Background(), x, testCluster(2), opt); err != nil {
		t.Fatal(err)
	}
	fpOld := runFingerprint(t, x, opt, 2)
	oldImage, err := os.ReadFile(filepath.Join(dir, CheckpointFileName(fpOld)))
	if err != nil {
		t.Fatal(err)
	}
	opt.Seed = 6
	opt.Resume = true
	res, err := Decompose(context.Background(), x, testCluster(2), opt)
	if err != nil {
		t.Fatalf("resume under a changed config with namespaced checkpoints: %v (want fresh start)", err)
	}
	plain, err := Decompose(context.Background(), x, testCluster(2),
		Options{Rank: 2, MaxIter: 3, MinIter: 3, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(res, plain) {
		t.Fatal("changed-config resume must run fresh and match a plain run")
	}
	after, err := os.ReadFile(filepath.Join(dir, CheckpointFileName(fpOld)))
	if err != nil || string(after) != string(oldImage) {
		t.Fatalf("original run's checkpoint disturbed by the new lineage (err %v)", err)
	}
}

func TestResumeCompletedRunReturnsStoredResult(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x, _, _, _ := plantedTensor(rng, 12, 10, 8, 2, 0.3)
	opt := Options{Rank: 2, MaxIter: 4, MinIter: 4, Seed: 3, CheckpointDir: t.TempDir()}
	full, err := Decompose(context.Background(), x, testCluster(2), opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Resume = true
	again, err := Decompose(context.Background(), x, testCluster(2), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(full, again) {
		t.Fatal("resuming a completed run must return the stored result")
	}
	if again.Stats.Stages >= full.Stats.Stages {
		t.Fatalf("resume of a completed run executed %d stages (full run: %d); it must skip the iterations",
			again.Stats.Stages, full.Stats.Stages)
	}
}

func TestCheckpointEveryKWritesFinal(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	x, _, _, _ := plantedTensor(rng, 10, 10, 10, 2, 0.3)
	opt := Options{Rank: 2, MaxIter: 5, MinIter: 5, Seed: 3,
		CheckpointDir: t.TempDir(), CheckpointEvery: 2}
	res, err := Decompose(context.Background(), x, testCluster(2), opt)
	if err != nil {
		t.Fatal(err)
	}
	fp := runFingerprint(t, x, opt, 2)
	ck, err := readCheckpoint(opt.CheckpointDir, fp)
	if err != nil || ck == nil {
		t.Fatalf("readCheckpoint: %v, %v", ck, err)
	}
	if ck.Iteration != res.Iterations {
		t.Fatalf("final checkpoint at iteration %d, want %d: the last iteration must be durable even off the period",
			ck.Iteration, res.Iterations)
	}
	if res.Stats.CheckpointBytes <= 0 {
		t.Fatalf("CheckpointBytes = %d, want > 0", res.Stats.CheckpointBytes)
	}
}

func TestConcurrentCheckpointJobsSharedDir(t *testing.T) {
	// Two resumable jobs sharing one checkpoint directory (the job server's
	// default before per-job dirs, and the CLI's -checkpoint-dir) must not
	// collide: each writes and reads only its fingerprint-namespaced file.
	// Under -race this also drives the two write paths concurrently.
	rng := rand.New(rand.NewSource(23))
	x, _, _, _ := plantedTensor(rng, 14, 12, 10, 3, 0.3)
	shared := t.TempDir()
	seeds := []int64{101, 202}
	mkOpt := func(seed int64) Options {
		return Options{Rank: 3, MaxIter: 4, MinIter: 4, Seed: seed,
			CheckpointDir: shared, CheckpointEvery: 1}
	}

	solo := make([]*Result, len(seeds))
	for i, seed := range seeds {
		res, err := Decompose(context.Background(), x, testCluster(4),
			Options{Rank: 3, MaxIter: 4, MinIter: 4, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		solo[i] = res
	}

	results := make([]*Result, len(seeds))
	errs := make([]error, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func(i int, seed int64) {
			defer wg.Done()
			results[i], errs[i] = Decompose(context.Background(), x, testCluster(4), mkOpt(seed))
		}(i, seed)
	}
	wg.Wait()
	for i := range seeds {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !resultsEqual(results[i], solo[i]) {
			t.Fatalf("job %d sharing a checkpoint dir diverged from its solo run", i)
		}
	}

	want := map[string]bool{}
	for _, seed := range seeds {
		fp := runFingerprint(t, x, mkOpt(seed), 4)
		want[CheckpointFileName(fp)] = true
	}
	entries, err := os.ReadDir(shared)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(want) {
		t.Fatalf("shared dir holds %d files, want %d", len(entries), len(want))
	}
	for _, e := range entries {
		if !want[e.Name()] {
			t.Fatalf("unexpected file %s in shared checkpoint dir", e.Name())
		}
	}

	// Each job resumes its own lineage from the shared directory.
	for i, seed := range seeds {
		opt := mkOpt(seed)
		opt.Resume = true
		res, err := Decompose(context.Background(), x, testCluster(4), opt)
		if err != nil {
			t.Fatal(err)
		}
		if !resultsEqual(res, solo[i]) {
			t.Fatalf("job %d resumed from the shared dir does not match its solo run", i)
		}
	}
}

func FuzzCheckpointDecode(f *testing.F) {
	f.Add(testCheckpoint().encode())
	small := &checkpoint{Iteration: 1, PrevErr: 9, IterationErrors: []int64{9},
		A: boolmat.NewFactor(1, 1), B: boolmat.NewFactor(1, 1), C: boolmat.NewFactor(0, 1)}
	f.Add(small.encode())
	f.Add(resealAsVersion(testCheckpoint().encode(), 0x03))
	f.Add([]byte("DBTFCKP\x01 garbage"))
	f.Add([]byte("DBTFCKP\x02 garbage"))
	f.Add([]byte("DBTFCKP\x03 garbage"))
	f.Add([]byte("DBTFCKP\x04 garbage"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := decodeCheckpoint(data)
		if err != nil {
			return
		}
		// A decoded checkpoint must re-encode to the identical image: the
		// format is canonical, so decode(encode(decode(x))) cannot drift.
		if got := ck.encode(); string(got) != string(data) {
			t.Fatalf("decode/encode not canonical:\nin:  %x\nout: %x", data, got)
		}
	})
}

// FuzzDeltasDecode: an eval reply decodes only when it is exactly the
// encoding of the shape the driver asked for — rows × lanes minimal varints
// whose lanes fit int32, no byte short and none over — and then re-encodes
// to the same bytes. The same bytes, read as raw int32 lanes, must survive
// encode then decode, in exactly deltasSize body bytes.
func FuzzDeltasDecode(f *testing.F) {
	for _, lanes := range []int{laneCount(1), laneCount(lookahead)} {
		// int32's extremes in every lane, so lane 2's difference from lane 1
		// spans 33 bits both ways.
		deltas := make([]int32, 5*lanes)
		for i := range deltas {
			deltas[i] = []int32{math.MinInt32, math.MaxInt32, math.MinInt32, 0, -1}[i%5]
		}
		payload := appendDeltas(nil, deltas, lanes)
		f.Add(payload, uint16(5), lanes == 1)
		f.Add(payload, uint16(5), lanes != 1)
		f.Add(payload[:len(payload)-1], uint16(5), lanes == 1) // cut inside the last varint
		f.Add(append(payload, 0), uint16(5), lanes == 1)       // one trailing byte
	}
	f.Add(append(deltasPayload(1, 1), 0x80, 0x00), uint16(1), true) // 0 as a two-byte varint
	// Lane 2 is sent as lane2 − lane1: +1 on top of MaxInt32 overflows.
	f.Add(deltasPayload(1, 3, 0, math.MaxInt32, 1), uint16(1), false)
	f.Add([]byte{}, uint16(0), true)
	f.Fuzz(func(t *testing.T, data []byte, rows uint16, single bool) {
		lanes := laneCount(lookahead)
		if single {
			lanes = laneCount(1)
		}
		raw := make([]int32, len(data)/4/lanes*lanes)
		for i := range raw {
			raw[i] = int32(binary.LittleEndian.Uint32(data[4*i:]))
		}
		enc := appendDeltas(nil, raw, lanes)
		if size := deltasSize(raw, lanes); size != len(enc)-deltasHeaderLen {
			t.Fatalf("deltasSize = %d for a %d-byte body", size, len(enc)-deltasHeaderLen)
		}
		back := make([]int32, len(raw))
		if err := decodeDeltas(enc, len(raw)/lanes, lanes, back); err != nil || !slices.Equal(back, raw) {
			t.Fatalf("%d lanes %v round-trip to %v, %v", lanes, raw, back, err)
		}

		dst := make([]int32, int(rows)*lanes)
		if err := decodeDeltas(data, int(rows), lanes, dst); err != nil {
			return
		}
		if got := appendDeltas(nil, dst, lanes); string(got) != string(data) {
			t.Fatalf("decoded as %d rows of %d lanes but re-encodes differently:\nin:  %x\nout: %x", rows, lanes, data, got)
		}
	})
}

// deltasPayload builds an eval reply by hand: the header for rows rows of
// lanes lanes, then each of values as the zigzag varint the body carries —
// lane 2 of a row is the value sent, its difference from lane 1.
func deltasPayload(rows, lanes int, values ...int64) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(rows))
	out = append(out, byte(lanes))
	for _, v := range values {
		out = binary.AppendUvarint(out, zigzag(v))
	}
	return out
}

// resealAsVersion rewrites an image's version byte and re-seals the CRC,
// so only the version check can reject it.
func resealAsVersion(img []byte, version byte) []byte {
	img[7] = version
	binary.LittleEndian.PutUint32(img[len(img)-4:], crc32.ChecksumIEEE(img[:len(img)-4]))
	return img
}

func TestCheckpointDecodeRejectsUnknownVersion(t *testing.T) {
	// 0x01 to 0x03 are retired layouts (0x03 is what the previous build
	// wrote): as unknown as a future version, refused and never mis-read.
	for _, version := range []byte{0x00, 0x01, 0x02, 0x03, 0x05, 0xff} {
		img := resealAsVersion(testCheckpoint().encode(), version)
		if _, err := decodeCheckpoint(img); err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("version %#x decoded: %v", version, err)
		}
	}
}

func TestKillThenResumeTopFiberBitIdentical(t *testing.T) {
	// Kill-at-k/resume through an init-mode run: the topfiber scheme draws
	// nothing from the RNG, and the resumed run must still be bit-identical.
	rng := rand.New(rand.NewSource(43))
	x, _, _, _ := plantedTensor(rng, 14, 12, 10, 3, 0.3)
	base := Options{Rank: 3, MaxIter: 5, MinIter: 5, Init: InitTopFiber, CheckpointEvery: 1}

	opt := base
	opt.CheckpointDir = t.TempDir()
	uninterrupted, err := Decompose(context.Background(), x, testCluster(4), opt)
	if err != nil {
		t.Fatal(err)
	}

	for _, k := range []int{1, 3} {
		t.Run(fmt.Sprintf("kill after iteration %d", k), func(t *testing.T) {
			opt := base
			opt.CheckpointDir = t.TempDir()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if _, err := Decompose(ctx, x, killAtCheckpoint(k, cancel), opt); !errors.Is(err, context.Canceled) {
				t.Fatalf("killed run returned %v, want context.Canceled", err)
			}
			fp := runFingerprint(t, x, opt, 4)
			ck, err := readCheckpoint(opt.CheckpointDir, fp)
			if err != nil || ck == nil || ck.Iteration != k {
				t.Fatalf("latest checkpoint after kill: %+v, %v; want iteration %d", ck, err, k)
			}

			opt.Resume = true
			resumed, err := Decompose(context.Background(), x, testCluster(4), opt)
			if err != nil {
				t.Fatal(err)
			}
			if !resultsEqual(uninterrupted, resumed) {
				t.Fatal("topfiber run resumed from a kill differs from the uninterrupted run")
			}
		})
	}
}

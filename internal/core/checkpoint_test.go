package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dbtf/internal/boolmat"
	"dbtf/internal/partition"
	"dbtf/internal/tensor"
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

func TestPreemptRequiresCheckpointDir(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, _, _, _ := plantedTensor(rng, 8, 8, 8, 2, 0.3)
	_, err := Decompose(context.Background(), x, testCluster(2),
		Options{Rank: 2, MaxIter: 2, Preempt: func() bool { return true }})
	if err == nil {
		t.Fatal("Preempt without CheckpointDir was accepted; eviction would lose the job")
	}
	if !strings.Contains(err.Error(), "CheckpointDir") {
		t.Fatalf("error %q does not name CheckpointDir", err)
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

// FuzzDeltasDecode: an eval reply decodes only when it is exactly what
// appendReply makes of the shape the driver asked for, and then re-encodes
// to the same bytes. A plain body is rows × lanes minimal varints whose
// lanes fit int32. A grouped body, strictly smaller than the plain one,
// holds every group's bases and then the rows with a hit, in order, each
// with one, and its lanes fit int32 — no byte short and none over. Read as
// raw int32 lanes, the same bytes survive a plain encode and decode; read
// as a split of row masks and blocks drawn from them, the lanes survive
// appendReply and a decodeReply against the driver's own grouping, in
// exactly replySize body bytes.
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
	// Grouped bodies for 16 rows of fuzzSplit — four groups, whose twelve
	// bases are zero here — then the count of rows with a hit and, for each,
	// its gap and hits. The plain body of such lanes is 48 bytes.
	grouped := func(listed ...uint64) []byte {
		return groupedPayload(16, 3, append(make([]uint64, 4*3), listed...)...)
	}
	valid := grouped(1, 5, 1, 0, 0) // row 5 hits once in lane 0
	f.Add(valid, uint16(16), false)
	f.Add(append(slices.Clone(valid), 0), uint16(16), false) // one trailing byte
	every := []uint64{16}
	for r := 0; r < 16; r++ {
		every = append(every, min(uint64(r), 1), 1, 0, 0)
	}
	f.Add(grouped(every...), uint16(16), false)                  // 77 bytes: larger than plain
	f.Add(grouped(1, 5, 0, 0, 0), uint16(16), false)             // a listed row with no hit
	f.Add(grouped(2, 5, 1, 0, 0, 0, 1, 0, 0), uint16(16), false) // row 5 twice: out of order
	f.Add(grouped(1, 5, math.MaxInt32, 0, 0), uint16(16), false) // 0 − 2·MaxInt32 is past int32
	// Five rows hit once and five 40 times: 53 bytes, as many as the plain
	// body, which is the one to send on a tie.
	tie := []uint64{10}
	for r := 0; r < 10; r++ {
		tie = append(tie, min(uint64(r), 1), []uint64{1, 40}[r/5], 0, 0)
	}
	f.Add(grouped(tie...), uint16(16), false)
	f.Fuzz(func(t *testing.T, data []byte, rows uint16, single bool) {
		span := lookahead
		if single {
			span = 1
		}
		lanes := laneCount(span)
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

		splitRoundTrip(t, data, span)

		dst := make([]int32, int(rows)*lanes)
		if !groupedReply(data) {
			if err := decodeDeltas(data, int(rows), lanes, dst); err != nil {
				return
			}
			if got := appendDeltas(nil, dst, lanes); string(got) != string(data) {
				t.Fatalf("decoded as %d rows of %d lanes but re-encodes differently:\nin:  %x\nout: %x", rows, lanes, data, got)
			}
			return
		}
		s := fuzzSplit(int(rows), span)
		defer s.release()
		if err := decodeReply(data, s, int(rows), lanes, dst); err != nil {
			return
		}
		if got := appendReply(nil, s, dst); string(got) != string(data) {
			t.Fatalf("decoded as %d grouped rows of %d lanes but re-encodes differently:\nin:  %x\nout: %x", rows, lanes, data, got)
		}
	})
}

// fuzzSplit groups rows rows for the stage of span columns at column 0:
// row r's mask is r mod 8 over rank 3, and the one block's PVM mask holds
// all three bits, so of every eight rows the pairs from 0–1 to 6–7 share a
// group — groups 0 to 3, in that order.
func fuzzSplit(rows, span int) *split {
	a, mf := boolmat.NewFactor(rows, 3), boolmat.NewFactor(1, 3)
	for r := 0; r < rows; r++ {
		a.SetRowMask(r, uint64(r%8))
	}
	mf.SetRowMask(0, 7)
	s := new(split)
	s.init(rows, laneCount(lookahead), 1)
	s.rowGroups(a, mf, []*partition.Block{{PVM: 0}}, 0, span)
	return s
}

// splitRoundTrip draws a stage from data — up to 64 rows whose masks over
// rank 6 are the bytes, three blocks whose PVM masks are bytes too, bases
// from the bytes and hits on a sixth of the lanes — and holds appendReply
// to replySize and to decodeReply, run against a grouping of its own as
// the driver's is.
func splitRoundTrip(t *testing.T, data []byte, span int) {
	n, lanes := min(len(data), 64), laneCount(span)
	if n == 0 {
		return
	}
	a, mf := boolmat.NewFactor(n, 6), boolmat.NewFactor(3, 6)
	for r := 0; r < n; r++ {
		a.SetRowMask(r, uint64(data[r])&63)
	}
	for k := 0; k < 3; k++ {
		mf.SetRowMask(k, uint64(data[k%n]>>2)&63)
	}
	blocks := []*partition.Block{{PVM: 0}, {PVM: 1}, {PVM: 2}}
	c := int(data[0]) % (7 - span)
	task, driver := new(split), new(split)
	for _, s := range []*split{task, driver} {
		s.init(n, lanes, 1)
		defer s.release()
		s.rowGroups(a, mf, blocks, c, span)
	}
	for g := 0; g < task.groups.n; g++ {
		base := task.groupBase(g)
		for l := range base {
			base[l] = int32(data[(g+l)%n]) * 7
		}
	}
	deltas := make([]int32, n*lanes)
	for r := range task.groups.of[:n] {
		base := task.groupBase(int(task.groups.of[r]))
		for l := 0; l < lanes; l++ {
			var hits int32
			if b := data[(r*lanes+l)*5%n]; b < 43 {
				hits = int32(b)
			}
			deltas[r*lanes+l] = base[l] - 2*hits
		}
	}
	size, grouped := replySize(task, deltas)
	enc := appendReply(nil, task, deltas)
	if size != len(enc)-deltasHeaderLen || grouped != groupedReply(enc) {
		t.Fatalf("replySize = %d, grouped %v, for a %d-byte body, grouped %v", size, grouped, len(enc)-deltasHeaderLen, groupedReply(enc))
	}
	back := make([]int32, n*lanes)
	if err := decodeReply(enc, driver, n, lanes, back); err != nil || !slices.Equal(back, deltas) {
		t.Fatalf("%d rows of %d lanes %v round-trip to %v, %v", n, lanes, deltas, back, err)
	}
	// A lane one off its group's base less twice whole hits is one the
	// split cannot carry: the reply goes plain and still round-trips.
	deltas[0]++
	if _, grouped := replySize(task, deltas); grouped {
		t.Fatalf("lanes %v that the split does not account for went grouped", deltas)
	}
	if err := decodeReply(appendReply(nil, task, deltas), driver, n, lanes, back); err != nil || !slices.Equal(back, deltas) {
		t.Fatalf("%d rows of %d lanes %v round-trip to %v, %v", n, lanes, deltas, back, err)
	}
}

// groupedPayload builds a grouped eval reply by hand: the header for rows
// rows of lanes lanes, marked grouped, then each of values as a uvarint.
func groupedPayload(rows, lanes int, values ...uint64) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(rows))
	out = append(out, byte(lanes)|groupedBody)
	for _, v := range values {
		out = binary.AppendUvarint(out, v)
	}
	return out
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

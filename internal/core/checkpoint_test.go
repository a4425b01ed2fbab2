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

	"dbtf/internal/bitvec"
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
// to the same bytes. A plain body is rows × lanes Exp-Golomb codes whose
// lanes fit int32. A grouped body, strictly smaller than the plain one,
// holds every group's bases and then the rows with a hit, in order, each
// with one, and its lanes fit int32. Either way every field is coded at the
// order the encoder picks for its values, no zero prefix is longer than
// such a value needs, the pad is zero and no byte follows it. Read as raw
// int32 lanes, the same bytes survive a plain encode and decode; read as a
// split of row masks and blocks drawn from them, the lanes survive
// appendReply and a decodeReply against the driver's own grouping, in
// exactly replySize body bytes. The span is 1 + span mod lookahead.
func FuzzDeltasDecode(f *testing.F) {
	for span := 1; span <= lookahead; span++ {
		lanes := laneCount(span)
		// int32's extremes in every lane, so a lane's difference from its
		// reference spans 33 bits both ways.
		deltas := make([]int32, 5*lanes)
		for i := range deltas {
			deltas[i] = []int32{math.MinInt32, math.MaxInt32, math.MinInt32, 0, -1}[i%5]
		}
		payload := plainReply(deltas, lanes)
		f.Add(payload, uint16(5), uint8(span-1))
		f.Add(payload, uint16(5), uint8(span%lookahead))          // read at another span
		f.Add(payload[:len(payload)-1], uint16(5), uint8(span-1)) // cut inside the last code
		f.Add(append(payload, 0), uint16(5), uint8(span-1))       // one trailing byte
	}
	plain := func(rows, lanes int, body func(w *bitvec.BitWriter)) []byte {
		return replyPayload(rows, lanes, false, body)
	}
	f.Add(plain(1, 1, func(w *bitvec.BitWriter) { // 0 at reference order 1: the encoder picks 0
		w.Write(1, orderBits)
		w.Write(0, orderBits)
		w.ExpGolomb(0, 1)
	}), uint16(1), uint8(0))
	f.Add(plain(1, 1, func(w *bitvec.BitWriter) { // 33 zeros: longer than an int32's zigzag needs
		w.Write(0, 2*orderBits)
		w.Write(0, 33)
		w.Write(1<<33, 34)
	}), uint16(1), uint8(0))
	f.Add(append(plainReply([]int32{0}, 1)[:deltasHeaderLen], 0x00, 0x81), uint16(1), uint8(0)) // 0, then a 1 in the pad
	// Lane 2 is sent as lane2 − lane1: +1 on top of MaxInt32 overflows.
	f.Add(plain(1, 3, func(w *bitvec.BitWriter) {
		w.Write(0, 2*orderBits)
		for _, v := range []int64{0, math.MaxInt32, 1} {
			w.ExpGolomb(zigzag(v), 0)
		}
	}), uint16(1), uint8(1))
	f.Add([]byte{}, uint16(0), uint8(0))
	ties := 0
	// Grouped bodies for 16 rows of fuzzSplit — four groups — at every
	// span: from the task's own lanes (at one lane a row the plain body is
	// the smaller), and by hand, every field at order 0 and every base zero,
	// then the count of rows with a hit and, for each, the rows skipped and
	// its hits.
	for span := 1; span <= lookahead; span++ {
		lanes := laneCount(span)
		s := fuzzSplit(16, span)
		deltas := make([]int32, 16*lanes)
		deltas[5*lanes] = -2 // row 5 hits once in lane 0
		valid := appendReply(nil, s, deltas)
		s.release()
		f.Add(valid, uint16(16), uint8(span-1))
		f.Add(append(slices.Clone(valid), 0), uint16(16), uint8(span-1)) // one trailing byte
		f.Add(valid[:len(valid)-1], uint16(16), uint8(span-1))           // cut inside a code
		grouped := func(listed ...uint64) []byte {
			return replyPayload(16, lanes, true, func(w *bitvec.BitWriter) {
				w.Write(0, groupedFields*orderBits)
				w.ExpGolomb(listed[0], 0)
				for range 4 * lanes {
					w.ExpGolomb(0, 0)
				}
				for _, v := range listed[1:] {
					w.ExpGolomb(v, 0)
				}
			})
		}
		hit := func(gap, h uint64) []uint64 { return append([]uint64{gap, h}, make([]uint64, lanes-1)...) }
		every := []uint64{16}
		for range 16 {
			every = append(every, hit(0, 1)...)
		}
		f.Add(grouped(every...), uint16(16), uint8(span-1))                                         // larger than plain
		f.Add(grouped(append([]uint64{1}, hit(5, 0)...)...), uint16(16), uint8(span-1))             // a listed row with no hit
		f.Add(grouped(append([]uint64{1}, hit(16, 1)...)...), uint16(16), uint8(span-1))            // past the last row
		f.Add(grouped(append([]uint64{1}, hit(5, math.MaxInt32)...)...), uint16(16), uint8(span-1)) // 0 − 2·MaxInt32 is past int32
		// A grouped body no smaller than the plain one: a tie goes plain.
		if tied, ok := tiedGroupedReply(span); ok {
			if err := decodeReply(tied, fuzzSplit(16, span), 16, lanes, make([]int32, 16*lanes)); err == nil || !strings.Contains(err.Error(), "not smaller") {
				f.Fatalf("a grouped body the size of the plain one at span %d decodes with %v", span, err)
			}
			f.Add(tied, uint16(16), uint8(span-1))
			ties++
		}
	}
	if ties == 0 {
		f.Fatal("no span has a grouped body the size of the plain one")
	}
	f.Fuzz(func(t *testing.T, data []byte, rows uint16, spanSeed uint8) {
		span := 1 + int(spanSeed)%lookahead
		lanes := laneCount(span)
		raw := make([]int32, len(data)/4/lanes*lanes)
		for i := range raw {
			raw[i] = int32(binary.LittleEndian.Uint32(data[4*i:]))
		}
		enc := plainReply(raw, lanes)
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
			if got := plainReply(dst, lanes); string(got) != string(data) {
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

// replyPayload builds an eval reply by hand: the header for rows rows of
// lanes lanes, marked grouped or not, then the bits body writes, padded.
func replyPayload(rows, lanes int, grouped bool, body func(w *bitvec.BitWriter)) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(rows))
	if grouped {
		lanes |= groupedBody
	}
	w := bitvec.NewBitWriter(append(out, byte(lanes)))
	body(&w)
	return w.Pad()
}

// plainReply is the plain eval reply carrying deltas, lanes to a row.
func plainReply(deltas []int32, lanes int) []byte {
	return appendDeltas(nil, deltas, lanes, plainBody(deltas, lanes))
}

// tiedGroupedReply returns a grouped reply for 16 rows of fuzzSplit at span
// columns whose body has exactly as many bytes as the plain body of the
// same lanes, which is the body a tie sends, and false if it finds none.
// It searches the lanes made of one base, shared by every group and lane,
// with the first few rows hitting once in lane 0.
func tiedGroupedReply(span int) ([]byte, bool) {
	lanes := laneCount(span)
	s := fuzzSplit(16, span)
	defer s.release()
	deltas := make([]int32, 16*lanes)
	for base := int32(0); base < 256; base++ {
		for g := 0; g < s.groups.n; g++ {
			for l := range s.groupBase(g) {
				s.groupBase(g)[l] = base
			}
		}
		for hit := 0; hit <= 16; hit++ {
			for i := range deltas {
				deltas[i] = base
				if i%lanes == 0 && i/lanes < hit {
					deltas[i] -= 2
				}
			}
			plain := plainBody(deltas, lanes).size
			if g, ok := groupedReplyBody(s, deltas, plain+1); ok && g.size == plain {
				return appendGrouped(nil, s, deltas, g), true
			}
		}
	}
	return nil, false
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

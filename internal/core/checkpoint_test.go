package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"dbtf/internal/bitvec"
	"dbtf/internal/boolmat"
	"dbtf/internal/partition"
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

// TestCheckpointDecodeForgedCount: an error count the image cannot back is
// refused before it sizes the error list, even under a valid checksum.
// Unchecked, the 1<<24 errors claimed here would allocate 128 MB.
func TestCheckpointDecodeForgedCount(t *testing.T) {
	le := binary.LittleEndian
	forged := le.AppendUint64(append([]byte(nil), checkpointMagic[:]...), 1)
	forged = le.AppendUint32(forged, 1)
	forged = le.AppendUint64(append(forged, 0), 0)
	forged = le.AppendUint32(le.AppendUint32(forged, 0), 1<<24)
	forged = append(forged, 0, 0, 0, 0, 0, 0, 0, 0)
	forged = le.AppendUint32(forged, crc32.ChecksumIEEE(forged))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeCheckpoint(forged)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a count of 2^24 errors over eight bytes decoded")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Fatalf("refusing a %d-byte image allocated %d bytes", len(forged), grew)
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
		Options{Rank: 2, MaxIter: 2, Boundary: func(int, bool) Boundary { return BoundaryYield }})
	if err == nil {
		t.Fatal("Boundary without CheckpointDir was accepted; eviction would lose the job")
	}
	if !strings.Contains(err.Error(), "CheckpointDir") {
		t.Fatalf("error %q does not name CheckpointDir", err)
	}
}

// TestBoundaryPolledAtEveryIteration records the poll's calls: once at every
// boundary, the last one — converged or at MaxIter — marked, and in a resumed
// run from the boundary after its checkpoint's. A yield at the last boundary
// checkpoints like any other, and its resume returns the uninterrupted
// result without an eval stage.
func TestBoundaryPolledAtEveryIteration(t *testing.T) {
	x, _, _, _ := plantedTensor(rand.New(rand.NewSource(3)), 12, 11, 10, 3, 0.3)
	type poll struct {
		t    int
		last bool
	}
	polled := func(from, to, last int) (p []poll) {
		for i := from; i <= to; i++ {
			p = append(p, poll{i, i == last})
		}
		return p
	}
	// run runs opt in dir, yielding at boundary yield, and returns what the
	// poll was asked and how many eval stages began.
	run := func(opt Options, dir string, yield int) (res *Result, polls []poll, evals int, err error) {
		opt.CheckpointDir = dir
		opt.Boundary = func(t int, last bool) Boundary {
			polls = append(polls, poll{t, last})
			if t == yield {
				return BoundaryYield
			}
			return BoundaryContinue
		}
		cl := tracedCluster(2, func(ev *trace.Event) {
			if ev.Type == trace.StageBegin && strings.HasPrefix(ev.Name, "eval:") {
				evals++
			}
		})
		res, err = Decompose(context.Background(), x, cl, opt)
		return res, polls, evals, err
	}

	opt := Options{Rank: 3, Seed: 1, MaxIter: 4, MinIter: 4}
	whole, polls, _, err := run(opt, t.TempDir(), 0)
	if err != nil || !slices.Equal(polls, polled(1, 4, 4)) {
		t.Fatalf("a run to MaxIter 4 was polled %v (%v), want %v", polls, err, polled(1, 4, 4))
	}
	early, polls, _, err := run(Options{Rank: 3, Seed: 1, MaxIter: 10, Tolerance: 1 << 40}, t.TempDir(), 0)
	if err != nil || !early.Converged || early.Iterations == 10 || !slices.Equal(polls, polled(1, early.Iterations, early.Iterations)) {
		t.Fatalf("a run converged at iteration %d of 10 (%v) was polled %v, want %v", early.Iterations, err, polls, polled(1, early.Iterations, early.Iterations))
	}

	for _, k := range []int{2, 4} {
		dir := t.TempDir()
		if _, polls, _, err := run(opt, dir, k); !errors.Is(err, ErrPreempted) || !slices.Equal(polls, polled(1, k, 4)) {
			t.Fatalf("yielded at boundary %d: %v, polled %v; want ErrPreempted, %v", k, err, polls, polled(1, k, 4))
		}
		resumed := opt
		resumed.Resume = true
		res, polls, evals, err := run(resumed, dir, 0)
		switch {
		case err != nil:
			t.Fatalf("resumed from boundary %d: %v", k, err)
		case !resultsEqual(res, whole):
			t.Errorf("resumed from boundary %d: errors %v, the uninterrupted run %v", k, res.IterationErrors, whole.IterationErrors)
		case !slices.Equal(polls, polled(k+1, 4, 4)):
			t.Errorf("resumed from boundary %d: polled %v, want %v", k, polls, polled(k+1, 4, 4))
		case k == 4 && evals != 0:
			t.Errorf("resumed from the last boundary: %d eval stages, want none", evals)
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
// appendReply makes for the stage the driver asked for, and then
// re-encodes to the same bytes, in exactly the body bytes split.price
// charges for it. The stage
// is fixed (fuzzStage): partition part mod 3 at column 0 and span
// 1 + span mod lookahead, so every decode runs the driver's walk over Full
// and partial blocks. A reply holds every field at the order the encoder
// picks for its values, no zero prefix longer than such a value needs,
// listed rows in range, in order and each with a hit, exactly one region
// size per lookup the memo does not answer, each within its block, every
// hit at most its base, a zero pad and no byte after it.
func FuzzDeltasDecode(f *testing.F) {
	st := newFuzzStage(f)
	// refused adds a corrupted reply as a seed once it is sure the decoder
	// refuses it: the property check alone would pass a decoder that
	// accepted a reply re-encoding to itself.
	refused := func(what string, payload []byte, span, part int) {
		s := new(split)
		s.init(fuzzRows, laneCount(lookahead), fuzzWidth)
		defer s.release()
		if err := st.decode(payload, s, part, 1+span%lookahead, make([]int32, fuzzRows*laneCount(1+span%lookahead))); err == nil {
			f.Fatalf("partition %d span %d: %s decodes", part, 1+span%lookahead, what)
		}
		f.Add(payload, uint8(span), uint8(part))
	}
	pads := 0
	for part := 0; part < 3; part++ {
		for span := 1; span <= lookahead; span++ {
			valid := st.reply(part, span)
			f.Add(valid.payload, uint8(span-1), uint8(part))
			if part != 1 {
				continue
			}
			// Partition 1 holds Full blocks whose lookups repeat and two
			// partial ones: its corruptions, one field at a time.
			refused("a cut code", valid.payload[:len(valid.payload)-1], span-1, part)
			refused("a trailing byte", append(slices.Clone(valid.payload), 0), span-1, part)
			refused("another span's reply", valid.payload, span%lookahead, part)
			short, long := valid, valid
			short.sizes = valid.sizes[:len(valid.sizes)-1]
			long.sizes = append(slices.Clone(valid.sizes), 0)
			refused("a region count one short", short.encode(), span-1, part)
			refused("a region count one long", long.encode(), span-1, part)
			repeated, ok := valid.repeatFull()
			if !ok {
				f.Fatalf("span %d: no Full-block lookup of partition %d repeats", span, part)
			}
			refused("a Full-block size the memo holds", repeated.encode(), span-1, part)
			refused("a hit above its base", valid.hitAboveBase().encode(), span-1, part)
			for field := 0; field < replyFields; field++ {
				bumped := valid
				bumped.bump = field + 1
				refused(fmt.Sprintf("field %d one order off", field), bumped.encode(), span-1, part)
			}
			if padded := valid.setPadBit(); padded != nil {
				refused("a one in the pad", padded, span-1, part)
				pads++
			}
		}
	}
	if pads == 0 {
		f.Fatal("no seed reply has a pad to set a bit in")
	}
	refused("an empty payload", []byte{}, 0, 0)
	refused("a header alone", st.reply(0, 1).payload[:deltasHeaderLen], 0, 0)
	f.Fuzz(func(t *testing.T, data []byte, spanSeed, partSeed uint8) {
		span, pi := 1+int(spanSeed)%lookahead, int(partSeed)%3
		s := new(split)
		s.init(fuzzRows, laneCount(lookahead), fuzzWidth)
		defer s.release()
		s.keep = true
		dst := make([]int32, fuzzRows*laneCount(span))
		if err := st.decode(data, s, pi, span, dst); err != nil {
			return
		}
		hits := hitsOf(s, dst)
		s.price(hits)
		got := appendReply(nil, s, hits)
		if string(got) != string(data) {
			t.Fatalf("partition %d span %d: decoded but re-encodes differently:\nin:  %x\nout: %x", pi, span, data, got)
		}
		if s.body.size != len(got)-deltasHeaderLen {
			t.Fatalf("priced at %d bytes, a %d-byte body", s.body.size, len(got)-deltasHeaderLen)
		}
	})
}

// fuzzRows and fuzzWidth are fuzzStage's rows and its widest partition.
const (
	fuzzRows  = 8
	fuzzWidth = 8
)

// fuzzStage is the stage FuzzDeltasDecode decodes against: the mode-1
// update of an 8×3×8 tensor cut into partitions 0 to 2 of eight columns
// each, so that PVM products of three are cut and partition 1 holds two
// Full blocks between a suffix and a prefix, over rank-4 factors. The rows
// of the factor under update repeat three masks and those of C, the PVM
// factor, two, so groups hold several rows and Full blocks repeat lookups.
type fuzzStage struct {
	d     *decomposition
	a, mf *boolmat.FactorMatrix
}

func newFuzzStage(t testing.TB) *fuzzStage {
	rng := rand.New(rand.NewSource(61))
	x := randomTensor(rng, fuzzRows, 3, 8, 0.4)
	d := newTestDecomposition(t, x, Options{Rank: 4, Partitions: 3}, 1)
	a, mf := repeatedRows(rng, fuzzRows, 4, 3), repeatedRows(rng, 8, 4, 2)
	if err := d.ex.setFactors(a, boolmat.RandomFactor(rng, 3, 4, 0.5), mf); err != nil {
		t.Fatal(err)
	}
	return &fuzzStage{d: d, a: a, mf: mf}
}

// reply evaluates partition pi's stage of span columns at column 0 as a
// worker does and returns what its reply carries.
func (st *fuzzStage) reply(pi, span int) replyParts {
	t := st.task(pi)
	s := t.split
	s.keep = true
	defer func() { s.keep = false }()
	hits := t.eval(0, span)
	return replyParts{st: st, pi: pi, span: span, hits: slices.Clone(hits), sizes: slices.Clone(s.sizes), payload: appendReply(nil, s, hits)}
}

// decode decodes payload as partition pi's reply to the stage of span
// columns at column 0, into dst, in s.
func (st *fuzzStage) decode(payload []byte, s *split, pi, span int, dst []int32) error {
	return decodeReply(payload, s, st.a, st.mf, st.d.ex.px[0].Parts[pi].Blocks, 0, span, dst)
}

// replyParts is what a reply carries, for corrupting one part at a time:
// the rows' hits, the region sizes sent, and the field whose order encode
// writes one higher than the encoder picks (bump − 1, none at 0).
type replyParts struct {
	st       *fuzzStage
	pi, span int
	hits     []int32
	sizes    []int32
	bump     int
	payload  []byte
}

// encode writes the reply of p's parts, each field at the order its values
// take, but the bumped one, and returns it with the bits its codes take.
func (p replyParts) encode() []byte {
	out, _ := p.encodeBits()
	return out
}

func (p replyParts) encodeBits() ([]byte, int) {
	s := new(split)
	s.init(fuzzRows, laneCount(lookahead), fuzzWidth)
	defer s.release()
	s.rows, s.lanes = fuzzRows, laneCount(p.span)
	for _, v := range p.sizes {
		s.sized.add(uint64(v), 1)
	}
	s.price(p.hits)
	orders := s.body.orders
	if p.bump > 0 {
		orders[p.bump-1]++
	}
	out := binary.LittleEndian.AppendUint32(nil, uint32(s.rows))
	w := bitvec.NewBitWriter(append(out, byte(s.lanes)))
	n := replyFields*orderBits + bitvec.ExpGolombBits(uint64(s.body.listed), 0)
	code := func(v uint64, k uint) {
		w.ExpGolomb(v, k)
		n += bitvec.ExpGolombBits(v, k)
	}
	for _, k := range orders {
		w.Write(uint64(k), orderBits)
	}
	w.ExpGolomb(uint64(s.body.listed), 0)
	prev := -1
	for r := 0; r < s.rows; r++ {
		if h := p.hits[r*s.lanes:][:s.lanes]; anyHit(h) {
			code(uint64(r-prev-1), orders[fieldGap])
			for l := range h {
				v, field := laneCode(h, l)
				code(v, orders[field])
			}
			prev = r
		}
	}
	for _, v := range p.sizes {
		code(uint64(v), orders[fieldSize])
	}
	return w.Pad(), n
}

// repeatFull returns p with the size of the first lookup the memo answers
// sent again, where the walk takes it from the memo, and false if no
// lookup repeats.
func (p replyParts) repeatFull() (replyParts, bool) {
	log := p.st.walkLog(p.pi, p.span)
	at := 0
	for _, l := range log {
		if !l.sent {
			p.sizes = slices.Insert(slices.Clone(p.sizes), at, int32(l.size))
			return p, true
		}
		at++
	}
	return p, false
}

// hitAboveBase returns p with the first listed row's first hit lane one
// above its group's base.
func (p replyParts) hitAboveBase() replyParts {
	s := new(split)
	s.init(fuzzRows, laneCount(lookahead), fuzzWidth)
	defer s.release()
	if err := p.st.decode(p.payload, s, p.pi, p.span, make([]int32, fuzzRows*laneCount(p.span))); err != nil {
		panic(err)
	}
	p.hits = slices.Clone(p.hits)
	lanes := laneCount(p.span)
	for r := 0; r < fuzzRows; r++ {
		if anyHit(p.hits[r*lanes:][:lanes]) {
			p.hits[r*lanes] = s.groupBase(int(s.groups.of[r]))[0] + 1
			return p
		}
	}
	panic("no row has a hit")
}

// setPadBit returns p's payload with its last pad bit set, or nil when the
// body fills its last byte.
func (p replyParts) setPadBit() []byte {
	out, bits := p.encodeBits()
	if bits%8 == 0 {
		return nil
	}
	out[len(out)-1] |= 1
	return out
}

// loggedLookup is one lookup of a walk: whether its block is Full, its
// mask and column, its size, and whether the reply sends it.
type loggedLookup struct {
	full, sent bool
	mask       uint64
	j, size    int
}

// lookupLogger is a region source that logs the lookups src answers.
type lookupLogger struct {
	src regionSource
	s   *split
	log []loggedLookup
}

func (l *lookupLogger) regionSize(bi int, b *partition.Block, mask, bit uint64, j, k int, lanes laneSet) (int, bool) {
	_, memoized := l.s.memo(b, mask, j)
	size, ok := l.src.regionSize(bi, b, mask, bit, j, k, lanes)
	l.log = append(l.log, loggedLookup{full: b.Type == partition.Full, sent: !memoized, mask: mask, j: j, size: size})
	return size, ok
}

// walkLog evaluates partition pi's stage of span columns at column 0 as
// its column task does, logging every lookup.
func (st *fuzzStage) walkLog(pi, span int) []loggedLookup { return logWalk(st.task(pi), 0, span) }

// task returns partition pi's column task, built.
func (st *fuzzStage) task(pi int) *columnTask {
	ex := st.d.ex
	if _, err := ex.eval(0, pi, 0); err != nil {
		panic(err)
	}
	return ex.tasks[0][pi]
}

// logWalk runs task t's walk of the stage of span columns at column c,
// logging every lookup.
func logWalk(t *columnTask, c, span int) []loggedLookup {
	s := t.split
	s.rowGroups(t.a, t.mf, t.part.Blocks, c, span)
	clear(t.deltas[:t.a.Rows()*s.lanes])
	logger := &lookupLogger{src: t, s: s}
	s.walk(logger, t.part.Blocks, t.mf, c, span)
	return logger.log
}

// hitsOf returns the hits a decode in s expanded into lanes: each lane's
// group base less the lane, halved.
func hitsOf(s *split, lanes []int32) []int32 {
	hits := make([]int32, len(lanes))
	for r, g := range s.groups.of[:s.rows] {
		for l, b := range s.groupBase(int(g)) {
			hits[r*s.lanes+l] = (b - lanes[r*s.lanes+l]) / 2
		}
	}
	return hits
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

// stageReply evaluates the stage at column c of partition pi's mode-1
// update on ex twice: as a worker's task, whose reply it returns, and as
// the driver's own, whose lanes it returns.
func stageReply(t testing.TB, ex *executor, pi, c int) (payload []byte, lanes []int32) {
	t.Helper()
	s := ex.splitFor(pi)
	s.keep = true
	defer func() { s.keep = false }()
	hits, err := ex.eval(0, pi, c)
	if err != nil {
		t.Fatal(err)
	}
	payload = appendReply(nil, s, hits)
	s.expand(hits)
	return payload, slices.Clone(hits)
}

package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"dbtf/internal/bitvec"
	"dbtf/internal/boolmat"
	"dbtf/internal/cluster"
	"dbtf/internal/gen"
	"dbtf/internal/partition"
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
	// evalReplies counts the eval payloads received, evalValues the lanes
	// their headers say they carry: rows × lanes each, whatever the body.
	evalReplies, evalValues atomic.Int64
	// bodies counts the partition bodies of the set-up blobs sent: each
	// blob less its header.
	bodies atomic.Int64
	// factorPushes and columnPushes count the StateFactors and StateColumn
	// pushes, and flipBodies the bytes of the latter less their headers.
	factorPushes, columnPushes, flipBodies atomic.Int64
	// flipStages counts the stages after which machine 0's worker held
	// the matrices it held before at other versions (see noteFlips); held
	// and versions are what it held at the last count.
	flipStages int64
	held       [3]*boolmat.FactorMatrix
	versions   [3]uint64
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
	switch kind {
	case transport.StateFactors:
		h.factorPushes.Add(1)
	case transport.StateColumn:
		h.columnPushes.Add(1)
		h.flipBodies.Add(int64(len(payload) - columnHeaderLen))
	}
	for _, host := range h.hosts {
		if err := host.Apply(kind, payload); err != nil {
			return err
		}
		h.sent.Add(int64(len(payload)))
	}
	return nil
}

func (h *hostTransport) PushSetup(ctx context.Context, setup [][]byte) error {
	for m, host := range h.hosts {
		if err := host.Apply(transport.StateSetup, setup[m]); err != nil {
			return err
		}
		h.sent.Add(int64(len(setup[m])))
		h.bodies.Add(int64(len(setup[m]) - setupHeaderLen))
	}
	return nil
}

// noteFlips counts the stage since its last call as one that flipped
// entries when machine 0's worker holds the matrices it held then, at
// other versions: a commit's flips reach the replicas before the next
// stage runs, and a run's last stage's by the time it returns.
func (h *hostTransport) noteFlips() {
	w, ok := h.hosts[0].(*Worker)
	if !ok || w.ex.f[0] == nil {
		return
	}
	var versions [3]uint64
	for i, m := range w.ex.f {
		versions[i] = m.Version()
	}
	if w.ex.f == h.held && versions != h.versions {
		h.flipStages++
	}
	h.held, h.versions = w.ex.f, versions
}

func (h *hostTransport) Run(ctx context.Context, spec transport.Spec, deliver func(transport.TaskResult) error) error {
	h.noteFlips()
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
				h.evalValues.Add(int64(binary.LittleEndian.Uint32(out.Payload)) * int64(out.Payload[4]))
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

// flipsTo returns the StateColumn push that makes columns [col, col+span)
// of m, the factor updated in mode, those of target, as a commit would
// push it, and the flips' positions, which may be none: such a push is
// never sent.
func flipsTo(mode, col, span int, m, target *boolmat.FactorMatrix) ([]byte, []uint64) {
	var pos []uint64
	for r := 0; r < m.Rows(); r++ {
		for j := 0; j < span; j++ {
			if m.Get(r, col+j) != target.Get(r, col+j) {
				pos = append(pos, uint64(r*span+j))
			}
		}
	}
	return appendFlips(nil, mode, col, span, m.Rows(), pos), pos
}

// TestCollectedBytesAreReplyBytes: the collected bytes the driver counts are
// the bytes the executors' replies carried, less one header per eval reply
// (a total-error reply is its 8-byte body) — per task and batched, at rank
// 5, so a sweep holds three-column stages and the two-column tail, at
// V = 15 and V = 1 — and the simulated run, which encodes nothing, counts
// the same.
func TestCollectedBytesAreReplyBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	planted, _, _, _ := gen.FromFactors(rng, 18, 15, 12, 5, 0.3)
	x := gen.AddNoise(rng, planted, 0.10, 0.05)
	for _, v := range []int{0, 1} {
		opt := Options{Rank: 5, Seed: 3, MaxIter: 3, Partitions: 4, GroupBits: v}
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
				t.Errorf("V=%d batch=%v: %d bytes received in %d eval replies, %d collected",
					v, ht.batch, recvd, replies, collected)
			}
			if collected != sim.Stats.CollectedBytes {
				t.Errorf("V=%d batch=%v: %d bytes collected, the simulated run %d",
					v, ht.batch, collected, sim.Stats.CollectedBytes)
			}
		}
	}
}

// TestWorkerRejectsOutOfOrderState pins the executor's error paths: stages
// before setup, factors before setup, columns before factors, and garbage
// payloads must all fail loudly.
func TestWorkerRejectsOutOfOrderState(t *testing.T) {
	w := NewWorker()
	if _, err := w.RunBatch(transport.Spec{Kind: transport.KindEval}, []int{0}); err == nil {
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
	setup := setupBlobs(t, x, runConfig{Rank: 2, Partitions: 2, GroupBits: 4, Machines: 2})
	if err := w.Apply(transport.StateReship, setup[1]); err == nil {
		t.Fatal("re-shipped partitions accepted before the set-up")
	}
	if err := w.Apply(transport.StateSetup, setup[0]); err != nil {
		t.Fatalf("valid setup rejected: %v", err)
	}
	if err := w.Apply(transport.StateReship, setup[0]); err == nil {
		t.Fatal("the worker's own partitions accepted as re-shipped")
	}
	other := setupBlobs(t, x, runConfig{Rank: 3, Partitions: 2, GroupBits: 4, Machines: 2})
	if err := w.Apply(transport.StateReship, other[1]); err == nil {
		t.Fatal("partitions of another run accepted as re-shipped")
	}
	if push, _ := flipsTo(0, 0, 1, boolmat.NewFactor(5, 2), boolmat.RandomFactor(rng, 5, 2, 0.5)); w.Apply(transport.StateColumn, push) == nil {
		t.Fatal("column push before factors succeeded")
	}
	if _, err := w.RunBatch(transport.Spec{Kind: transport.KindEval, Mode: 0, Col: 0}, []int{0}); err == nil {
		t.Fatal("eval before factors succeeded")
	}
	if err := w.Apply(transport.StateFactors, encodeFactors(boolmat.RandomFactor(rng, 5, 2, 0.5),
		boolmat.RandomFactor(rng, 6, 3, 0.5), boolmat.RandomFactor(rng, 7, 2, 0.5))); err == nil {
		t.Fatal("factors of the wrong shape accepted")
	}
}

// buildPartitions partitions x as the driver of a run under cfg does.
func buildPartitions(t testing.TB, x *tensor.Tensor, cfg runConfig) [3]*partition.Partitioned {
	t.Helper()
	i, j, k := x.Dims()
	ex := newExecutor(cfg, [3]int{i, j, k}, cfg.Machines, func(pi int) int { return pi % cfg.Machines }, lookahead)
	if err := ex.setup(x, false, serially); err != nil {
		t.Fatal(err)
	}
	return ex.px
}

// setupBlobs returns every machine's set-up blob of a run of x under cfg.
func setupBlobs(t testing.TB, x *tensor.Tensor, cfg runConfig) [][]byte {
	t.Helper()
	px := buildPartitions(t, x, cfg)
	defer releasePartitions(px)
	i, j, k := x.Dims()
	blobs := make([][]byte, cfg.Machines)
	for home := range blobs {
		blobs[home] = encodeSetup(cfg, [3]int{i, j, k}, home, px)
	}
	return blobs
}

// samePartition reports whether two partitions of a rows-row unfolding
// have the same bounds and blocks, row for row.
func samePartition(a, b *partition.Partition, rows int) bool {
	if a.Index != b.Index || a.Lo != b.Lo || a.Hi != b.Hi || len(a.Blocks) != len(b.Blocks) {
		return false
	}
	for bi := range a.Blocks {
		x := &a.Blocks[bi]
		y := &b.Blocks[bi]
		if x.PVM != y.PVM || x.Lo != y.Lo || x.Hi != y.Hi || x.InnerLo != y.InnerLo || x.Type != y.Type || x.Dense() != y.Dense() {
			return false
		}
		for r := 0; r < rows; r++ {
			if !slices.Equal(x.AppendRow(nil, r), y.AppendRow(nil, r)) || !slices.Equal(x.RowWords(r), y.RowWords(r)) {
				return false
			}
		}
	}
	return true
}

// TestSetupCodecRoundTrip: a machine's set-up blob carries every runConfig
// field — a value per kind the walk knows, so a field it dropped or
// mis-typed shows — the dims and the machine, and decodes to exactly the
// partitions homed there, block for block and row for row as the driver
// built them, which encode back to the blob byte for byte. A blob cut
// inside its header, without its bodies, with a byte after the last body
// or carrying an out-of-range configuration is refused.
func TestSetupCodecRoundTrip(t *testing.T) {
	x := randomTensor(rand.New(rand.NewSource(5)), 5, 6, 7, 0.2)
	dims := [3]int{5, 6, 7}
	cfg := runConfig{
		Rank: 3, MaxIter: 7, MinIter: 2, InitialSets: 4, Partitions: 5, GroupBits: 4,
		Tolerance: -9, Init: InitTopFiber, Seed: -42, Machines: 2,
	}
	px := buildPartitions(t, x, cfg)
	defer releasePartitions(px)
	for home := 0; home < cfg.Machines; home++ {
		blob := encodeSetup(cfg, dims, home, px)
		s, err := decodeSetup(blob)
		if err != nil {
			t.Fatal(err)
		}
		if s.cfg != cfg || s.dims != dims || s.home != home {
			t.Fatalf("machine %d: decoded %+v %v machine %d, want %+v %v", home, s.cfg, s.dims, s.home, cfg, dims)
		}
		for m, p := range s.px {
			if len(p.Parts) != len(px[m].Parts) {
				t.Fatalf("machine %d mode %d: %d partition slots, the driver has %d", home, m+1, len(p.Parts), len(px[m].Parts))
			}
			for pi, part := range p.Parts {
				switch {
				case (part != nil) != (pi%cfg.Machines == home):
					t.Fatalf("machine %d mode %d: holds partition %d: %v", home, m+1, pi, part != nil)
				case part != nil && (!samePartition(part, px[m].Parts[pi], p.NumRows) || p.ReshipBytes(pi) != px[m].ReshipBytes(pi)):
					t.Fatalf("machine %d mode %d: partition %d differs from the driver's", home, m+1, pi)
				}
			}
		}
		if again := encodeSetup(s.cfg, s.dims, s.home, s.px); !bytes.Equal(again, blob) {
			t.Fatalf("machine %d: the decoded blob encodes to %d other bytes", home, len(again))
		}
		releasePartitions(s.px)
	}
	blob := encodeSetup(cfg, dims, 0, px)
	for _, cut := range []int{0, 7, setupHeaderLen - 1} {
		if _, err := decodeSetup(blob[:cut]); err == nil || !strings.Contains(err.Error(), "shorter than") {
			t.Fatalf("setup cut at %d bytes: got %v, want the length check", cut, err)
		}
	}
	if _, err := decodeSetup(blob[:setupHeaderLen]); err == nil {
		t.Fatal("setup without its bodies accepted")
	}
	if _, err := decodeSetup(append(slices.Clone(blob), 0)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("setup with a byte after the last body: got %v, want the trailing-bytes check", err)
	}
	cfg.Rank = boolmat.MaxRank + 1
	if _, err := decodeSetup(encodeSetup(cfg, dims, 0, px)); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("rank %d: got %v, want the range check", cfg.Rank, err)
	}
}

// bitString packs a string of 0s and 1s, spaces aside, most significant
// bit first, and zero-pads it to a byte.
func bitString(s string) []byte {
	var out []byte
	n := 0
	for _, c := range s {
		if c == ' ' {
			continue
		}
		if n%8 == 0 {
			out = append(out, 0)
		}
		if c == '1' {
			out[n/8] |= 0x80 >> (n % 8)
		}
		n++
	}
	return out
}

// carriedBlobs returns machine 0's set-up blob of a run of x under cfg, cut
// after its mode-1 bodies and continued in two ways the decoder must refuse:
// inside, a first mode-2 body whose row 0 ships one nonzero in column 0 —
// mode-1 column 0, in partition 0, homed on machine 0 like every partition
// 0, so the segment is carried — ahead of the blob's own mode-2 bodies (the
// count 1 as the order-0 code 010, the gap 0 as the order-1 code 10 of a
// partition 8 columns wide); and
// counted, the first mode-2 body as a plain build ships it, whose row counts
// include the carried nonzeros, followed by the rest of the blob.
func carriedBlobs(t testing.TB, x *tensor.Tensor, cfg runConfig) (inside, counted []byte) {
	t.Helper()
	px := buildPartitions(t, x, cfg)
	defer releasePartitions(px)
	i, j, k := x.Dims()
	blob := encodeSetup(cfg, [3]int{i, j, k}, 0, px)
	cut := setupHeaderLen
	for pi := 0; pi < len(px[0].Parts); pi += cfg.Machines {
		cut += int(px[0].ReshipBytes(pi))
	}
	inside = append(append(slices.Clone(blob[:cut]), bitString("010 10")...), blob[cut:]...)
	plain := partition.Build(x.Unfold(tensor.Mode2), cfg.Partitions)
	defer plain.Release()
	counted = plain.AppendBody(slices.Clone(blob[:cut]), 0)
	counted = append(counted, blob[cut+int(px[1].ReshipBytes(0)):]...)
	if plain.ReshipBytes(0) == px[1].ReshipBytes(0) {
		t.Fatal("the first mode-2 partition carries nothing: pick another tensor")
	}
	return inside, counted
}

// TestSetupDecodeRefusesCarriedNonzeros: a mode-2 or mode-3 body that ships
// a nonzero the blob's mode-1 bodies carry — in a row whose count says one,
// or in the plain body a run with nothing carried would ship — is refused,
// so the one blob that decodes to a worker's partitions is encodeSetup's.
func TestSetupDecodeRefusesCarriedNonzeros(t *testing.T) {
	x := randomTensor(rand.New(rand.NewSource(6)), 6, 5, 4, 0.3)
	inside, counted := carriedBlobs(t, x, runConfig{Rank: 3, Partitions: 3, GroupBits: 4, Machines: 2})
	for name, blob := range map[string][]byte{"one nonzero in a carried segment": inside, "the plain body": counted} {
		if _, err := decodeSetup(blob); err == nil || !strings.Contains(err.Error(), "mode 2") || !strings.Contains(err.Error(), "carried segment") {
			t.Errorf("%s: got %v, want the carried-segment check in mode 2", name, err)
		}
	}
}

// setupLayoutBytes bounds what the layout a set-up header implies can
// allocate, whatever its bodies: a slot per partition, and per partition
// homed on the blob's machine its blocks with their row pointers. A header
// the decoder refuses before any layout implies none.
func setupLayoutBytes(data []byte) uint64 {
	if len(data) < setupHeaderLen {
		return 0
	}
	var cfg runConfig
	words := make([]uint64, reflect.TypeOf(cfg).NumField())
	for n := range words {
		words[n] = binary.LittleEndian.Uint64(data[8*n:])
	}
	cfg.setWords(words)
	var dims [3]int
	for n := range dims {
		dims[n] = int(binary.LittleEndian.Uint32(data[8*len(words)+4*n:]))
	}
	home := int(binary.LittleEndian.Uint32(data[8*len(words)+12:]))
	if cfg.Machines < 1 || cfg.Machines > math.MaxInt32 || cfg.Partitions < 1 || home >= cfg.Machines || checkDims(dims) != nil {
		return 0
	}
	var bytes uint64
	for m := tensor.Mode1; m <= tensor.Mode3; m++ {
		r, _, w := m.Place(tensor.Coord{I: dims[0], J: dims[1], K: dims[2]})
		c, _ := m.Columns(dims[0], dims[1], dims[2])
		rows, width, cols := uint64(r), uint64(w), uint64(c)
		n := min(uint64(cfg.Partitions), cols)
		var held uint64
		if uint64(home) < n {
			held = 1 + (n-1-uint64(home))/uint64(cfg.Machines)
		}
		blocks := held * ((cols+n-1)/n/width + 2)
		bytes += 8*n + 128*held + blocks*(256+8*(rows+1))
	}
	return bytes
}

// flipsAt packs a StateColumn push laid out as appendFlips lays it out, but
// at the given order and with the given positions however they run: what a
// corrupt or mismatched peer could send.
func flipsAt(mode, col, span, rows int, order uint, pos ...uint64) []byte {
	dst := []byte{byte(mode), byte(span)}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(col))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(rows))
	w := bitvec.NewBitWriter(dst)
	w.Write(uint64(order), orderBits)
	w.ExpGolomb(uint64(len(pos)), 0)
	prev := ^uint64(0)
	for _, p := range pos {
		w.ExpGolomb(p-prev, order)
		prev = p
	}
	return w.Pad()
}

// FuzzFlipsDecode: the column-push decoder's accept set is canonical pushes
// only. Every payload it applies re-encodes — as a commit that flipped the
// entries it toggled would log and push them — to the same bytes, its body
// at the size that commit is priced at; a payload it refuses leaves every
// factor as it was. The seeds are pushes of one to three columns into a
// short factor and one 300 rows tall, at orders from 0 up, and one of each
// corruption the decoder must refuse, each checked refused before it is
// added.
func FuzzFlipsDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(61))
	base := [3]*boolmat.FactorMatrix{boolmat.RandomFactor(rng, 13, 5, 0.4), boolmat.RandomFactor(rng, 7, 5, 0.4), boolmat.RandomFactor(rng, 300, 5, 0.4)}
	valid := func(mode, col, span int, pos ...uint64) []byte {
		return appendFlips(nil, mode, col, span, base[modeRoles[mode].upd].Rows(), pos)
	}
	dense := make([]uint64, 0, 200)
	for p := uint64(0); p < 600; p += 3 {
		dense = append(dense, p)
	}
	sparse := []uint64{0, 150, 299}
	for _, seed := range [][]byte{
		valid(0, 0, 3, 0, 1, 2, 38),
		valid(1, 4, 1, 6),
		valid(2, 2, 3, 5, 17, 300, 301, 640, 899),
		valid(2, 0, 2, dense...),
		valid(2, 3, 1, sparse...),
	} {
		f.Add(seed)
	}
	good := valid(2, 3, 1, sparse...)
	order := uint(good[columnHeaderLen] >> (8 - orderBits))
	bits := orderBits + bitvec.ExpGolombBits(uint64(len(sparse)), 0)
	for i, p := range sparse {
		d := p + 1
		if i > 0 {
			d = p - sparse[i-1]
		}
		bits += bitvec.ExpGolombBits(d, order)
	}
	if order == 0 || bits%8 == 0 {
		f.Fatalf("the sparse push is coded at order %d in %d bits: it must leave an order below and a pad", order, bits)
	}
	padded := slices.Clone(good)
	padded[len(padded)-1] |= 1
	tooMany := bitvec.NewBitWriter(slices.Clone(good[:columnHeaderLen]))
	tooMany.Write(0, orderBits)
	tooMany.ExpGolomb(64, 0)
	for name, payload := range map[string][]byte{
		"a position at rows·span":      valid(2, 3, 1, 0, 150, 300),
		"a repeated position":          valid(2, 3, 1, 0, 150, 150, 299),
		"an order one above":           flipsAt(2, 3, 1, 300, order+1, sparse...),
		"an order one below":           flipsAt(2, 3, 1, 300, order-1, sparse...),
		"no flip":                      flipsAt(2, 3, 1, 300, 0),
		"a count above the bits left":  tooMany.Pad(),
		"a set pad bit":                padded,
		"a trailing byte":              append(slices.Clone(good), 0),
		"a cut code":                   good[:len(good)-1],
		"a row count not the factor's": flipsAt(2, 3, 1, 299, order, sparse...),
		"columns past the rank":        flipsAt(2, 3, 3, 300, order, sparse...),
	} {
		fs := [3]*boolmat.FactorMatrix{base[0].Clone(), base[1].Clone(), base[2].Clone()}
		if err := applyFlips(payload, fs); err == nil {
			f.Fatalf("the push with %s is accepted", name)
		}
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		fs := [3]*boolmat.FactorMatrix{base[0].Clone(), base[1].Clone(), base[2].Clone()}
		err := applyFlips(payload, fs)
		n := -1 // the factor the push toggled, if it was applied
		if err == nil {
			n = modeRoles[payload[0]].upd
		}
		for o, m := range fs {
			if o != n && !m.Equal(base[o]) {
				t.Fatalf("a push that was refused or for another factor (%v) changed factor %d", err, o)
			}
		}
		if err != nil {
			return
		}
		mode, span, col := int(payload[0]), int(payload[1]), int(binary.LittleEndian.Uint16(payload[2:]))
		again, flipped := flipsTo(mode, col, span, base[n], fs[n])
		if _, size := priceFlips(flipped); !bytes.Equal(again, payload) || len(payload) != columnHeaderLen+size {
			t.Fatalf("an applied push of %d bytes re-encodes to %x, priced at %d body bytes:\n%x", len(payload), again, size, payload)
		}
	})
}

// FuzzSetupDecode: whatever bytes arrive as a set-up blob, the decoder
// neither panics nor allocates beyond a small multiple of them plus the
// layout its header's validated dims imply — a forged count buys nothing —
// and what it accepts it accepts whole: the partitions it decodes encode
// back to the very blob.
func FuzzSetupDecode(f *testing.F) {
	cfg := runConfig{Rank: 3, MaxIter: 5, InitialSets: 1, Partitions: 3, GroupBits: 4, Seed: 9, Machines: 2}
	x := randomTensor(rand.New(rand.NewSource(6)), 6, 5, 4, 0.3)
	real := setupBlobs(f, x, cfg)[0]
	header := real[:setupHeaderLen:setupHeaderLen]
	// Machine 0's first body is partition 0 of the mode-1 unfolding: 6 rows
	// over columns [0, 6); a count's code has at most 2 leading zeros there,
	// and a row with 1 to 3 columns has order-0 gap codes of at most 2. Its
	// second is partition 2's, so the mode's bodies are at least 12 bits.
	body := func(bits string) []byte { return append(slices.Clone(header), bitString(bits)...) }
	// refused adds a seed after checking that the decoder refuses it where
	// its comment says.
	refused := func(why string, blob []byte) {
		if _, err := decodeSetup(blob); err == nil || !strings.Contains(err.Error(), why) {
			f.Fatalf("got %v, want an error containing %q", err, why)
		}
		f.Add(blob)
	}
	f.Add(real)
	refused("cut short", real[:len(real)-1]) // cut inside the last body
	// Rows of one column (gap 1, gap 0) and three empty ones, then a count
	// whose code runs past the body.
	refused("row 5: the count's code", body("010 010  010 1  1  1  1  001"))
	// One column, at the partition's Hi: the gap 6.
	refused("column 0 is at or past", body("010 00111  00000000"))
	// One column whose gap's code has 3 leading zeros.
	refused("column 0's code", body("010 0001  000000000"))
	// Four rows of one column and an empty one, then a count of 6 with 2
	// bits left.
	refused("the 2 bits left", body("010 1  010 1  010 1  010 1  1  00111  00"))
	// Six empty rows and a padding bit set.
	refused("pads", body("1 1 1 1 1 1  01  00000000"))
	// A blob for machine 2 of 2.
	other := slices.Clone(real)
	binary.LittleEndian.PutUint32(other[setupHeaderLen-4:], 2)
	refused("machine 2 of 2", other)
	// A cache group of 64 bits.
	wide := cfg
	wide.GroupBits = 64
	refused("groupbits=64", setupBlobs(f, x, wide)[0])
	// One byte after the last body.
	refused("trailing", append(slices.Clone(real), 0))
	// A mode-2 nonzero the mode-1 bodies carry, and a mode-2 body whose row
	// counts include such nonzeros.
	inside, counted := carriedBlobs(f, x, cfg)
	f.Add(inside)
	f.Add(counted)
	f.Fuzz(func(t *testing.T, data []byte) {
		layout := setupLayoutBytes(data)
		if layout > 8<<20 {
			return // a legitimate shape, too large for a fuzz run to build
		}
		var s setup
		var err error
		// The decoder's buffers are a few times its input at most, whatever
		// the counts say; the rest is the layout's and fixed cost.
		bound := 64<<10 + 64*uint64(len(data)) + layout
		grew := ^uint64(0)
		for try := 0; try < 3 && grew > bound; try++ { // TotalAlloc is process-wide: believe the least
			if err == nil {
				releasePartitions(s.px)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s, err = decodeSetup(data)
			runtime.ReadMemStats(&after)
			grew = min(grew, after.TotalAlloc-before.TotalAlloc)
		}
		if grew > bound {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		defer releasePartitions(s.px)
		if again := encodeSetup(s.cfg, s.dims, s.home, s.px); !bytes.Equal(again, data) {
			t.Fatalf("encode(decode(blob)) is %d other bytes, the blob %d", len(again), len(data))
		}
	})
}

// TestGolombTallyPicksTheShortestOrder holds golombTally to the
// definition of a field's order: of the orders 0 to maxOrder, the one whose
// codes of the values sum to the fewest bits, the smaller on a tie — found
// here by coding every value at every order. The values are drawn at every
// scale up to a 33-bit difference lane, with runs of ones at their tops
// (values whose codes carry) and zeros.
func TestGolombTallyPicksTheShortestOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 2000; trial++ {
		var f golombTally
		values := make([]uint64, rng.Intn(40))
		for i := range values {
			v := rng.Uint64() >> uint(31+rng.Intn(34))
			switch rng.Intn(4) {
			case 0:
				v = 0
			case 1:
				v |= v>>1 | v>>2 | v>>3 // a run of ones at the top
			}
			values[i] = v
			f.add(v, 1)
		}
		wantOrder, wantSize := uint(0), -1
		for k := uint(0); k <= maxOrder; k++ {
			size := 0
			for _, v := range values {
				size += bitvec.ExpGolombBits(v, k)
			}
			if wantSize < 0 || size < wantSize {
				wantOrder, wantSize = k, size
			}
		}
		if order, size := f.best(); order != wantOrder || size != wantSize {
			t.Fatalf("values %v: tally picks order %d at %d bits, coding them gives order %d at %d", values, order, size, wantOrder, wantSize)
		}
	}
}

// TestDeltasCodecInsistsOnShape: the driver knows how many rows and lanes
// the stage it shipped must answer with, and which lookups its walk makes,
// and an eval reply of any other shape — a one-lane reply to a three-lane
// stage, a short buffer, trailing bytes — or any body but the one
// appendReply makes is an error, never a mis-read: a field at an order the
// encoder would not pick, a zero prefix longer than a count needs, a hit
// past int32, a region wider than its block, a code cut short, a one in
// the pad.
func TestDeltasCodecInsistsOnShape(t *testing.T) {
	st := newFuzzStage(t)
	three, one := st.reply(1, 2), st.reply(1, 1)
	decode := func(payload []byte, span int) error {
		s := new(split)
		s.init(fuzzRows, laneCount(lookahead), fuzzWidth)
		defer s.release()
		return st.decode(payload, s, 1, span, make([]int32, fuzzRows*laneCount(span)))
	}
	if err := decode(three.payload, 2); err != nil {
		t.Fatalf("the task's own reply: %v", err)
	}
	rows := slices.Clone(three.payload)
	rows[0]++
	past, wide := three, three
	past.hits = slices.Clone(three.hits)
	past.hits[slices.IndexFunc(past.hits, func(h int32) bool { return h != 0 })] = math.MaxInt32
	wide.sizes = slices.Clone(three.sizes)
	wide.sizes[0] = fuzzWidth + 1
	overlong := slices.Clone(three.payload[:deltasHeaderLen])
	w := bitvec.NewBitWriter(overlong)
	w.Write(0, replyFields*orderBits)
	w.Write(0, rowBits+1) // the listed count's prefix, one zero past a u32's
	w.Write(1, rowBits+2)
	overlong = w.Pad()
	for name, tc := range map[string]struct {
		payload []byte
		span    int
	}{
		"one lane answering a three-lane stage":  {one.payload, 2},
		"three lanes answering a one-lane stage": {three.payload, 1},
		"wrong row count":                        {rows, 2},
		"short buffer":                           {three.payload[:len(three.payload)-1], 2},
		"trailing byte":                          {append(slices.Clone(three.payload), 0), 2},
		"header only":                            {three.payload[:deltasHeaderLen], 2},
		"cut header":                             {three.payload[:deltasHeaderLen-1], 2},
		"a one in the pad":                       {three.setPadBit(), 2},
		"a hit of MaxInt32, past its base":       {past.encode(), 2},
		"a region wider than its block":          {wide.encode(), 2},
		"an over-long zero prefix":               {overlong, 2},
	} {
		if tc.payload == nil {
			t.Fatalf("%s: no payload to corrupt", name)
		}
		if err := decode(tc.payload, tc.span); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
	for field := 0; field < replyFields; field++ {
		bumped := three
		bumped.bump = field + 1
		if err := decode(bumped.encode(), 2); err == nil || !strings.Contains(err.Error(), "order") {
			t.Errorf("field %d one order off: %v", field, err)
		}
	}
}

// TestRemoteRebuildsWorkerLanes: a driver that decodes a worker's eval
// reply — the rows' hits and the region sizes, the bases rebuilt by its own
// walk over its own grouping — holds the lanes its own executor evaluates,
// bit for bit, at every stage of every mode's update: at ranks 1 to 5 and
// 64, over one-column tables and the default layout, on a shape whose
// partitions cut PVM products, so that partial blocks, whose sizes are
// always sent, sit beside Full ones, whose repeats the memo answers.
func TestRemoteRebuildsWorkerLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	x := randomTensor(rng, 11, 7, 9, 0.3)
	partial := false
	for _, rank := range []int{1, 2, 3, 4, 5, 64} {
		for _, v := range []int{1, 0} {
			d := newTestDecomposition(t, x, Options{Rank: rank, Partitions: 4, GroupBits: v}, 1)
			w := NewWorker()
			if err := w.Apply(transport.StateSetup, setupBlobs(t, x, d.ex.cfg)[0]); err != nil {
				t.Fatal(err)
			}
			a, b, c := repeatedRows(rng, 11, rank, 3), boolmat.RandomFactor(rng, 7, rank, 0.3), repeatedRows(rng, 9, rank, 4)
			if err := d.ex.setFactors(a, b, c); err != nil {
				t.Fatal(err)
			}
			if err := w.Apply(transport.StateFactors, encodeFactors(a, b, c)); err != nil {
				t.Fatal(err)
			}
			for mode, role := range modeRoles {
				for pi, part := range d.ex.px[mode].Parts {
					for bi := range part.Blocks {
						blk := &part.Blocks[bi]
						partial = partial || blk.Type != partition.Full
					}
					for col := 0; col < rank; col += d.ex.stageSpan(col) {
						want, err := d.ex.eval(mode, pi, col)
						if err != nil {
							t.Fatal(err)
						}
						d.ex.splits[pi].expand(want)
						want = slices.Clone(want)
						outs, err := w.RunBatch(transport.Spec{Kind: transport.KindEval, Mode: mode, Col: col, Tasks: len(d.ex.px[mode].Parts)}, []int{pi})
						if err != nil {
							t.Fatal(err)
						}
						got := make([]int32, len(want))
						if err := decodeReply(outs[0].Payload, d.ex.splitFor(pi), d.ex.f[role.upd], d.ex.f[role.pvm], part.Blocks, col, d.ex.stageSpan(col), got); err != nil {
							t.Fatalf("rank %d V=%d mode %d part %d col %d: %v", rank, v, mode, pi, col, err)
						}
						if !slices.Equal(got, want) {
							t.Fatalf("rank %d V=%d mode %d part %d col %d: rebuilt lanes %v, the executor's %v", rank, v, mode, pi, col, got, want)
						}
					}
				}
			}
		}
	}
	if !partial {
		t.Fatal("no partition cut a PVM product")
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
	// Machine 0's worker, holding machine 1's partitions too: a whole stage.
	setup := setupBlobs(t, x, runConfig{Rank: 3, Partitions: 2, GroupBits: 4, Machines: 2})
	if err := w.Apply(transport.StateSetup, setup[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.Apply(transport.StateReship, setup[1]); err != nil {
		t.Fatal(err)
	}
	a := boolmat.RandomFactor(rng, 8, 3, 0.4)
	b := boolmat.RandomFactor(rng, 7, 3, 0.4)
	c := boolmat.RandomFactor(rng, 6, 3, 0.4)
	if err := w.Apply(transport.StateFactors, encodeFactors(a, b, c)); err != nil {
		t.Fatal(err)
	}
	spec := transport.Spec{Kind: transport.KindEval, Mode: 0, Col: 1, Tasks: 2}

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
// partition mid-update — it holds its own set-up, the factors and every
// column push, and is re-shipped the partition's machine's set-up just
// before it is first asked for it — answers the stage of columns 4 and 5
// with the same deltas as the partition's own worker, which evaluated the
// stages of columns 0…5 in order. That is what a reassignment after a loss,
// a rejoin, and the ordinary first column of an update all rely on.
func TestWorkerBuildsTaskAtFirstEvalOfAnyColumn(t *testing.T) {
	const rank = 6
	rng := rand.New(rand.NewSource(9))
	x := randomTensor(rng, 9, 8, 7, 0.25)
	setup := setupBlobs(t, x, runConfig{Rank: rank, Partitions: 2, GroupBits: 4, Machines: 2})
	factors := encodeFactors(boolmat.RandomFactor(rng, 9, rank, 0.4),
		boolmat.RandomFactor(rng, 8, rank, 0.4), boolmat.RandomFactor(rng, 7, rank, 0.4))
	const mode, part = 1, 1
	home, heir := NewWorker(), NewWorker()
	for m, w := range []*Worker{heir, home} {
		if err := w.Apply(transport.StateSetup, setup[m]); err != nil {
			t.Fatal(err)
		}
		if err := w.Apply(transport.StateFactors, factors); err != nil {
			t.Fatal(err)
		}
	}
	spec := transport.Spec{Kind: transport.KindEval, Mode: mode, Tasks: 2}
	committed := boolmat.RandomFactor(rng, 8, rank, 0.5)
	for spec.Col = 0; spec.Col < rank-lookahead; spec.Col += lookahead {
		if _, err := home.RunBatch(spec, []int{part}); err != nil {
			t.Fatalf("column %d: %v", spec.Col, err)
		}
		// The driver pushes the stage's flips everywhere, asked or not.
		push, flipped := flipsTo(mode, spec.Col, lookahead, home.ex.f[modeRoles[mode].upd], committed)
		for _, w := range []*Worker{home, heir} {
			if len(flipped) == 0 {
				break
			}
			if err := w.Apply(transport.StateColumn, push); err != nil {
				t.Fatal(err)
			}
		}
	}
	want, err := home.RunBatch(spec, []int{part})
	if err != nil {
		t.Fatal(err)
	}
	var notHeld *notHeldError
	if _, err := heir.RunBatch(spec, []int{part}); !errors.As(err, &notHeld) {
		t.Fatalf("the heir evaluated partition %d before it was re-shipped: %v", part, err)
	}
	if err := heir.Apply(transport.StateReship, setup[part]); err != nil {
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

// registryRun is what the machines' cache registries did over a run of
// the decomposition's schedule (see runRegistries).
type registryRun struct {
	// first[m][t] holds the keys machine m's registry held first at the
	// end of a stage of iteration t, 1-based.
	first [][]map[registryKey]bool
	// builds[m] is the tables machine m built.
	builds []int
	// changed[t][n] reports whether iteration t's commits changed factor n.
	changed [][3]bool
}

// runRegistries runs iters iterations of the decomposition's schedule of x
// under opt on machines machines — on the driver's executor when ht is
// nil, on ht's Workers otherwise — watching every machine's registry at the
// end of every stage, when all its tasks are joined and nothing else runs.
func runRegistries(t *testing.T, x *tensor.Tensor, opt Options, machines, iters int, ht *hostTransport) registryRun {
	t.Helper()
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
	run := registryRun{first: make([][]map[registryKey]bool, machines), builds: make([]int, machines), changed: make([][3]bool, iters+1)}
	seen := make([]map[registryKey]bool, machines)
	for m := range seen {
		seen[m], run.first[m] = map[registryKey]bool{}, make([]map[registryKey]bool, iters+1)
	}
	iteration := 0
	cc := cluster.Config{Machines: machines, Tracer: trace.New(sinkFunc(func(ev *trace.Event) {
		if ev.Type != trace.StageEnd || iteration == 0 {
			return
		}
		for m, reg := range registries() {
			if run.first[m][iteration] == nil {
				run.first[m][iteration] = map[registryKey]bool{}
			}
			for key := range reg.entries {
				if !seen[m][key] {
					run.first[m][iteration][key] = true
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
	f := [3]*boolmat.FactorMatrix{}
	f[0], f[1], f[2] = initialSet(rand.New(rand.NewSource(opt.Seed)), x, d.ex.cfg)
	for iteration = 1; iteration <= iters; iteration++ {
		var versions [3]uint64
		for n, m := range f {
			versions[n] = m.Version()
		}
		if err := d.install(f[0], f[1], f[2]); err != nil {
			t.Fatal(err)
		}
		if _, err := d.updateFactors(); err != nil {
			t.Fatal(err)
		}
		if iteration == 1 {
			if _, err := d.totalError(); err != nil {
				t.Fatal(err)
			}
		}
		for n, m := range f {
			run.changed[iteration][n] = m.Version() != versions[n]
		}
	}
	for m, reg := range registries() {
		run.builds[m] = reg.builds
	}
	return run
}

// TestWorkerBuildsTwoTablesPerIteration counts the cache tables an iteration
// costs a machine, as distinct (matrix, version) pairs appearing in its
// registry between the iteration's stages: one over B for the A-update and
// one over the updated A for the B- and C-updates, on a Worker exactly as on
// the driver's executor running the same schedule on the simulator. While
// an iteration ended on a total-error stage, the table that stage built
// over the just-updated B was the third of three and served nothing. The
// iteration counted is a steady-state one that changes A and B, as its
// predecessor did, so that no table outlives it (see
// TestWorkerBuildsEachTableOnce for one that does).
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
	// built returns, per machine, the tables first seen during iteration
	// steady.
	built := func(run registryRun) []map[table]bool {
		for it := steady - 1; it <= steady; it++ {
			if !run.changed[it][0] || !run.changed[it][1] {
				t.Fatalf("iteration %d left A or B as it was: pick another seed", it)
			}
		}
		tables := make([]map[table]bool, machines)
		for m := range tables {
			tables[m] = map[table]bool{}
			for key := range run.first[m][steady] {
				tables[m][table{key.m, key.version}] = true
			}
		}
		return tables
	}
	driver := built(runRegistries(t, x, opt, machines, iters, nil))
	workers := built(runRegistries(t, x, opt, machines, iters, newHostTransport(machines)))
	for m := 0; m < machines; m++ {
		if len(workers[m]) != 2 || len(driver[m]) != len(workers[m]) {
			t.Errorf("machine %d: iteration %d built %d tables on the worker and %d on the driver's executor, want 2 and 2",
				m, steady, len(workers[m]), len(driver[m]))
		}
	}
}

// TestWorkerBuildsEachTableOnce: a Worker's factors are installed once and
// then toggled in place by the stages' flips, so its cache tables outlive
// the iterations that leave their matrix as it was, exactly as the
// driver's executor's do. Over a four-iteration run whose last iterations
// change no factor, each worker builds each (matrix, version, range) table
// once — its build count is the number of keys its registry ever held —
// and as many tables as the driver's executor builds for its machine.
func TestWorkerBuildsEachTableOnce(t *testing.T) {
	const machines, rank, iters = 2, 4, 4
	rng := rand.New(rand.NewSource(13))
	planted, _, _, _ := gen.FromFactors(rng, 10, 9, 8, 4, 0.35)
	x := gen.AddNoise(rng, planted, 0.1, 0.1)
	opt := Options{Rank: rank, Seed: rank}
	driver := runRegistries(t, x, opt, machines, iters, nil)
	workers := runRegistries(t, x, opt, machines, iters, newHostTransport(machines))
	if driver.changed[iters] != [3]bool{} {
		t.Fatalf("iteration %d changed a factor (%v): pick another seed", iters, driver.changed[iters])
	}
	for m := 0; m < machines; m++ {
		keys := 0
		for _, first := range workers.first[m] {
			keys += len(first)
		}
		if workers.builds[m] != keys || workers.builds[m] != driver.builds[m] {
			t.Errorf("machine %d: the worker built %d tables for %d keys, the driver's executor %d",
				m, workers.builds[m], keys, driver.builds[m])
		}
		if n := len(workers.first[m][iters]); n != 0 {
			t.Errorf("machine %d: the worker built %d tables in iteration %d, which changed no factor", m, n, iters)
		}
	}
}

// replayTransport is a hostTransport whose worker can restart between two
// stages: the new process gets what the tcp coordinator's state log holds
// for it — its machine's set-up, the last install of the factors and every
// flip pushed since — and nothing else.
type replayTransport struct {
	*hostTransport
	setup [][]byte
	log   []transport.StateBlob
	// restart is the machine to restart before the next stage, or −1;
	// replayed is what the last restart replayed after the set-up.
	restart  int
	replayed []transport.StateBlob
}

func (r *replayTransport) PushSetup(ctx context.Context, setup [][]byte) error {
	r.setup, r.log = setup, nil
	return r.hostTransport.PushSetup(ctx, setup)
}

func (r *replayTransport) PushState(ctx context.Context, kind transport.StateKind, payload []byte) error {
	if kind == transport.StateFactors {
		r.log = nil
	}
	r.log = append(r.log, transport.StateBlob{Kind: kind, Payload: payload})
	return r.hostTransport.PushState(ctx, kind, payload)
}

func (r *replayTransport) Run(ctx context.Context, spec transport.Spec, deliver func(transport.TaskResult) error) error {
	if m := r.restart; m >= 0 {
		w := NewWorker()
		if err := w.Apply(transport.StateSetup, r.setup[m]); err != nil {
			return err
		}
		for _, blob := range r.log {
			if err := w.Apply(blob.Kind, blob.Payload); err != nil {
				return err
			}
		}
		r.hosts[m], r.replayed, r.restart = w, slices.Clone(r.log), -1
	}
	return r.hostTransport.Run(ctx, spec, deliver)
}

// TestWorkerReplaysInstallAndFlips: a worker that restarts after iteration
// 2 and is replayed its set-up, the one install and the flips pushed since
// — of iterations 1 and 2, both — holds the driver's factors entry for
// entry: the rest of the run it serves stays bit-identical to the
// simulator's, down to the bytes its replies carry.
func TestWorkerReplaysInstallAndFlips(t *testing.T) {
	const machines = 2
	rng := rand.New(rand.NewSource(29))
	planted, _, _, _ := gen.FromFactors(rng, 14, 12, 10, 4, 0.3)
	x := gen.AddNoise(rng, planted, 0.1, 0.1)
	opt := Options{Rank: 4, Seed: 5, MinIter: 4, MaxIter: 4, Partitions: 4}
	sim, err := Decompose(context.Background(), x, testCluster(machines), opt)
	if err != nil {
		t.Fatal(err)
	}
	rt := &replayTransport{hostTransport: newHostTransport(machines), restart: -1}
	cl := cluster.New(cluster.Config{Machines: machines, Transport: rt, Tracer: trace.New(sinkFunc(func(ev *trace.Event) {
		if ev.Type == trace.IterationEnd && ev.Iteration == 2 {
			rt.restart = 1
		}
	}))})
	res, err := Decompose(context.Background(), x, cl, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.replayed) < 2 || rt.replayed[0].Kind != transport.StateFactors {
		t.Fatalf("the restarted worker was replayed %d blobs, want the install and at least one push of flips", len(rt.replayed))
	}
	for _, blob := range rt.replayed[1:] {
		if blob.Kind != transport.StateColumn {
			t.Fatalf("the replay holds a %s push after the install", blob.Kind)
		}
	}
	if factorHash(res.A, res.B, res.C) != factorHash(sim.A, sim.B, sim.C) || !slices.Equal(res.IterationErrors, sim.IterationErrors) ||
		res.Stats.CollectedBytes != sim.Stats.CollectedBytes || res.Stats.BroadcastBytes != sim.Stats.BroadcastBytes {
		t.Errorf("with a worker restarted after iteration 2: errors %v, %d B collected, %d B broadcast; the simulator's %v, %d, %d",
			res.IterationErrors, res.Stats.CollectedBytes, res.Stats.BroadcastBytes, sim.IterationErrors, sim.Stats.CollectedBytes, sim.Stats.BroadcastBytes)
	}
}

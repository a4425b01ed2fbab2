package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"slices"

	"dbtf/internal/bitvec"
	"dbtf/internal/boolmat"
	"dbtf/internal/partition"
	"dbtf/internal/sumcache"
)

// The state and result payloads a remote run ships, in the coordinator →
// executor direction (setup, factors, columns) and back (deltas, partial
// errors). Payloads are opaque to the transport: these codecs define their
// only interpretation, and every decoder validates against the run's known
// shapes so a corrupt or mismatched peer errors instead of computing
// garbage.

// setupHeaderLen is a set-up blob's framing: one little-endian u64 per
// runConfig field, in runConfig.words order, then the u32 dims I, J, K and
// the u32 machine the blob is for. The partition bodies follow it.
var setupHeaderLen = 8*reflect.TypeOf(runConfig{}).NumField() + 4*4

// carriedBy is the one rule of what a set-up body leaves out: a mode-2 or
// mode-3 body ships no nonzero whose mode-1 partition is homed on the same
// machine, since the blob's mode-1 bodies carry it already. Every nonzero of
// a mode-2 segment (row j in PVM product k) and of a mode-3 segment (row k
// in product j) lies in mode-1 column j + k·J, and its mode-1 row i is its
// inner index in the segment's product (Equation 1), so whether a segment
// is carried depends on its row and product alone. Mode-1 bodies carry
// nothing, and a blob holds its machine's mode-1 partitions whether it is
// the machine's own set-up or a re-ship of a lost one.
func carriedBy(mode int, dims [3]int, cfg runConfig) partition.Carry {
	if mode == 0 {
		return partition.Carry{}
	}
	j, k := dims[1], dims[2]
	c := partition.Carry{Machines: cfg.Machines, Cols: j * k, N: min(cfg.Partitions, j*k), RowStride: 1, PVMStride: j}
	if mode == 2 {
		c.RowStride, c.PVMStride = j, 1
	}
	return c
}

// encodeSetup builds machine home's set-up blob (StateSetup for the machine
// itself, StateReship for the survivor that inherits its partitions): the
// header, then for each mode the set-up bodies of the partitions homed on
// it — pi ≡ home mod M — in partition order (partition.AppendBody), those
// of modes 2 and 3 without what carriedBy leaves out. That is all a worker
// holds of the tensor. The blob is made once, at its exact size, from the
// body sizes the partitioning counted.
func encodeSetup(cfg runConfig, dims [3]int, home int, px [3]*partition.Partitioned) []byte {
	size := setupHeaderLen
	for _, p := range px {
		for pi := home; pi < len(p.Parts); pi += cfg.Machines {
			size += int(p.ReshipBytes(pi))
		}
	}
	blob := make([]byte, 0, size)
	var words [16]uint64 // more than runConfig has fields: the header costs no object
	for _, w := range cfg.appendWords(words[:0]) {
		blob = binary.LittleEndian.AppendUint64(blob, w)
	}
	for _, d := range dims {
		blob = binary.LittleEndian.AppendUint32(blob, uint32(d))
	}
	blob = binary.LittleEndian.AppendUint32(blob, uint32(home))
	for _, p := range px {
		for pi := home; pi < len(p.Parts); pi += cfg.Machines {
			blob = p.AppendBody(blob, pi)
		}
	}
	return blob
}

// setup is a decoded set-up blob: the run's configuration and dims, the
// machine the blob is for, and that machine's partitions.
type setup struct {
	cfg  runConfig
	dims [3]int
	home int
	px   [3]*partition.Partitioned
}

// unfoldingShapes are tensor.Unfold's shapes by mode (Equation 1): the
// indices into the dims of the unfolding's rows, of its PVM product width
// and of its product count.
var unfoldingShapes = [3][3]int{{0, 1, 2}, {1, 0, 2}, {2, 0, 1}}

// tooWide reports whether an unfolding of a × b columns overflows int32.
func tooWide(a, b int) bool { return uint64(a)*uint64(b) > math.MaxInt32 }

// decodeSetup reads a set-up blob straight into its machine's partitions.
// Before it sizes anything by the header it refuses what a mismatched or
// corrupt peer could send: a configuration word no run encodes or one out
// of range, an empty mode or an unfolding whose columns overflow int32, a
// machine outside the cluster. The bodies are partition.Receive's to
// check, and a byte after the last is an error. Mode 1 is decoded first;
// its partitions, transposed once, fill the segments modes 2 and 3 carry.
// Nothing of a refused blob is kept.
func decodeSetup(payload []byte) (setup, error) {
	var s setup
	if len(payload) < setupHeaderLen {
		return s, fmt.Errorf("core: decode setup: %d bytes, shorter than the %d-byte header", len(payload), setupHeaderLen)
	}
	words := make([]uint64, reflect.TypeOf(s.cfg).NumField())
	for n := range words {
		words[n] = binary.LittleEndian.Uint64(payload[8*n:])
	}
	s.cfg.setWords(words)
	cfg := s.cfg
	if !slices.Equal(cfg.words(), words) {
		return s, errors.New("core: setup configuration holds a word no run encodes")
	}
	if cfg.Machines < 1 || cfg.Machines > math.MaxInt32 || cfg.Rank < 1 || cfg.Rank > boolmat.MaxRank || cfg.Partitions < 1 || cfg.GroupBits < 1 {
		return s, fmt.Errorf("core: setup parameters out of range: machines=%d rank=%d partitions=%d groupbits=%d",
			cfg.Machines, cfg.Rank, cfg.Partitions, cfg.GroupBits)
	}
	if cfg.GroupBits > sumcache.MaxGroupBits {
		return s, fmt.Errorf("core: setup groupbits=%d: %w", cfg.GroupBits, ErrGroupBits)
	}
	rest := payload[8*len(words):]
	for n := range s.dims {
		s.dims[n] = int(binary.LittleEndian.Uint32(rest[4*n:]))
	}
	s.home = int(binary.LittleEndian.Uint32(rest[12:]))
	rest = rest[16:]
	i, j, k := s.dims[0], s.dims[1], s.dims[2]
	if i < 1 || j < 1 || k < 1 || tooWide(i, j) || tooWide(i, k) || tooWide(j, k) {
		return s, fmt.Errorf("core: setup dims %dx%dx%d: a mode is empty or an unfolding has more than 2^31-1 columns", i, j, k)
	}
	if s.home >= cfg.Machines {
		return s, fmt.Errorf("core: setup blob for machine %d of %d", s.home, cfg.Machines)
	}
	var held *partition.Columns
	for m, shape := range unfoldingShapes {
		rows, width, products := s.dims[shape[0]], s.dims[shape[1]], s.dims[shape[2]]
		px, after, err := partition.Receive(rows, width*products, width, cfg.Partitions, s.home, cfg.Machines, carriedBy(m, s.dims, cfg), held, rest)
		if err != nil {
			releasePartitions(s.px)
			return setup{}, fmt.Errorf("core: decode setup: mode %d: %w", m+1, err)
		}
		s.px[m], rest = px, after
		if m == 0 {
			held = px.Transpose()
			defer held.Release()
		}
	}
	if len(rest) != 0 {
		releasePartitions(s.px)
		return setup{}, fmt.Errorf("core: %d trailing bytes after the setup bodies", len(rest))
	}
	return s, nil
}

// encodeFactors snapshots A, B, C back to back in the boolmat binary
// layout (StateFactors).
func encodeFactors(a, b, c *boolmat.FactorMatrix) []byte {
	out := a.AppendBinary(nil)
	out = b.AppendBinary(out)
	return c.AppendBinary(out)
}

func decodeFactors(payload []byte) (a, b, c *boolmat.FactorMatrix, err error) {
	rest := payload
	for i, dst := range []**boolmat.FactorMatrix{&a, &b, &c} {
		var m *boolmat.FactorMatrix
		m, rest, err = boolmat.DecodeBinaryFactor(rest)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("core: decode factor %d: %w", i, err)
		}
		*dst = m
	}
	if len(rest) != 0 {
		return nil, nil, nil, fmt.Errorf("core: %d trailing bytes after factor snapshot", len(rest))
	}
	return a, b, c, nil
}

// columnHeaderLen is the StateColumn header: u8 mode, u8 column count, u16
// first column, u32 row count; each column's packed bits follow in turn.
const columnHeaderLen = 8

// encodeColumns snapshots columns [col, col+span) of factor matrix m (the
// factor updated in mode modeIdx) — the columns one eval stage committed —
// as packed bit vectors.
func encodeColumns(modeIdx, col, span int, m *boolmat.FactorMatrix) []byte {
	rows := m.Rows()
	stride := (rows + 7) / 8
	out := make([]byte, columnHeaderLen+span*stride)
	out[0], out[1] = byte(modeIdx), byte(span)
	binary.LittleEndian.PutUint16(out[2:], uint16(col))
	binary.LittleEndian.PutUint32(out[4:], uint32(rows))
	for j := 0; j < span; j++ {
		bits := out[columnHeaderLen+j*stride:]
		for r := 0; r < rows; r++ {
			if m.Get(r, col+j) {
				bits[r/8] |= 1 << uint(r%8)
			}
		}
	}
	return out
}

// decodeColumns unpacks a StateColumn payload: bits holds span columns of
// ⌈rows/8⌉ bytes each, the first being column col.
func decodeColumns(payload []byte) (modeIdx, col, span, rows int, bits []byte, err error) {
	if len(payload) < columnHeaderLen {
		return 0, 0, 0, 0, nil, fmt.Errorf("core: column payload truncated: %d bytes", len(payload))
	}
	modeIdx, span = int(payload[0]), int(payload[1])
	col = int(binary.LittleEndian.Uint16(payload[2:]))
	rows = int(binary.LittleEndian.Uint32(payload[4:]))
	bits = payload[columnHeaderLen:]
	if span < 1 || span > lookahead {
		return 0, 0, 0, 0, nil, fmt.Errorf("core: column payload holds %d columns, want 1 to %d", span, lookahead)
	}
	if want := span * ((rows + 7) / 8); len(bits) != want {
		return 0, 0, 0, 0, nil, fmt.Errorf("core: column payload has %d bit bytes, want %d for %d columns of %d rows", len(bits), want, span, rows)
	}
	if modeIdx < 0 || modeIdx > 2 {
		return 0, 0, 0, 0, nil, fmt.Errorf("core: column payload mode %d outside [0,2]", modeIdx)
	}
	return modeIdx, col, span, rows, bits, nil
}

// deltasHeaderLen is KindEval's result header: u32 row count, u8 lanes per
// row, the lanes byte's high bit (groupedBody) marking a grouped body. The
// body is a bit string of Exp-Golomb codes, MSB first and zero-padded to a
// byte, that opens with one orderBits-wide order per field and codes every
// value of the field at that order. A lane whose outcome index is not 0
// goes as its difference from its laneRef, zigzagged; a reference lane goes
// as itself, zigzagged in a plain body and as the count it is in a grouped
// one.
//
// A plain body has two fields, the reference lanes and the difference
// lanes, and carries rows × lanes values, row by row. A grouped body
// carries the stage's split instead (see split) in five fields — base
// reference, base difference, row gap, hit reference, hit difference:
// after the orders, the count of rows with a hit as an order-0 code; every
// group's base lanes, in group order; then for each row with a hit,
// ascending, the rows skipped since the one before and its hit lanes.
const deltasHeaderLen = 5

// groupedBody marks a grouped body in the header's lanes byte.
const groupedBody = 0x80

// orderBits is the width of a field's order, and maxOrder the largest
// order it holds.
const (
	orderBits = 4
	maxOrder  = 1<<orderBits - 1
)

// A grouped body's fields; a plain body's are the first two, its lanes
// standing where the bases do.
const (
	fieldRef = iota
	fieldDiff
	fieldGap
	fieldHitRef
	fieldHitDiff
	groupedFields
)

// Value bounds, in bits, of the fields' codes: the decoder refuses a zero
// prefix longer than a value of that many bits needs at the field's order.
// A reference lane is a zigzagged int32, a difference of two lanes one of
// 33 bits, a count at most MaxInt32 and a difference of two counts within
// ±MaxInt32; a row gap and the count of listed rows are below the row
// count, a u32.
const (
	laneBits      = 32
	laneDiffBits  = 33
	countBits     = 31
	countDiffBits = 32
	rowBits       = 32
)

// laneRef returns the lane a reply sends lane l as its difference from, or
// −1 for a reference lane. Lane l is column c+j's lane of outcome index o
// (see laneCount), l+1 being 2^j + o; its reference is the lane of outcome
// o & (o−1), the row's earlier bits with the last 1 of them a 0, so l+1
// less its lowest 1 — none when that 1 is 2^j itself. The two differ only
// on blocks whose PVM mask holds that bit and column c+j's, so the
// difference is mostly zero. At span 2 lane 2 goes as lane 2 − lane 1.
func laneRef(l int) int { return (l+1)&l - 1 }

// zigzag maps small magnitudes of either sign to small unsigned values;
// unzigzag is its inverse.
func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// laneCode is what a body carries for lane l of an entry's lanes, and its
// field among fieldRef and fieldDiff: a plain body's lanes, zigzagged, or a
// grouped body's counts — a group's bases or a row's hits, never negative
// — sent as they are when they are reference lanes.
func laneCode(lanes []int32, l int, counts bool) (uint64, int) {
	if ref := laneRef(l); ref >= 0 {
		return zigzag(int64(lanes[l]) - int64(lanes[ref])), fieldDiff
	}
	if counts {
		return uint64(lanes[l]), fieldRef
	}
	return zigzag(int64(lanes[l])), fieldRef
}

// golombTally tallies the values of one field so that the order coding
// them in the fewest bits, and those bits, follow without a pass over the
// values per order. At order k a value v of bit length b costs k+1 bits
// when b <= k, else 2b − k − 1, plus two more when v + 2^k carries past
// v's top bit: when bits k … b−1 of v are all ones, for k from v's carry
// start — the bit length of v's highest 0 below its top run of ones, which
// is ^v ∧ v>>1's — up to b − 1.
type golombTally struct {
	// lengths[b] counts the values of bit length b, and starts[s] those of
	// carry start s; every field's values are below 2^(laneDiffBits+1).
	lengths, starts [laneDiffBits + 2]int
}

// add tallies n values v.
//
//dbtf:noalloc
func (f *golombTally) add(v uint64, n int) {
	f.lengths[bits.Len64(v)] += n
	f.starts[bits.Len64(^v&(v>>1))] += n
}

// best returns the order in [0, maxOrder] that codes the tallied values in
// the fewest bits, the smaller order on a tie, and those bits. The values
// carrying at order k are those whose carry start is at most k less those
// whose length is. Past the longest value's bit length every value costs
// k+1 bits, so no larger order is shorter.
//
//dbtf:noalloc
func (f *golombTally) best() (order uint, size int) {
	top, count, sum := 0, 0, 0
	for b, n := range f.lengths {
		if n != 0 {
			top, count, sum = b, count+n, sum+b*n
		}
	}
	// short and shortSum are the values of bit length at most k and their
	// lengths summed, started those of carry start at most k.
	short, shortSum, started := 0, 0, 0
	for k := 0; k <= min(top, maxOrder); k++ {
		short, shortSum, started = short+f.lengths[k], shortSum+k*f.lengths[k], started+f.starts[k]
		n := (k+1)*short + 2*(sum-shortSum) - (k+1)*(count-short) + 2*(started-short)
		if k == 0 || n < size {
			order, size = uint(k), n
		}
	}
	return order, size
}

// laneTally tallies entries' lanes — a plain body's rows, a grouped body's
// bases or hits — in their two fields, as laneCode codes them.
type laneTally struct{ ref, diff golombTally }

// add tallies one entry's lanes: column by column, its reference lane,
// the first, and the differences of the others. Most differences are
// zero, and it adds the zeros up in one go.
//
//dbtf:noalloc
func (t *laneTally) add(lanes []int32, counts bool) {
	zeroRefs, zeroDiffs := 0, 0
	for ref := 0; ref < len(lanes); ref = 2*ref + 1 {
		v := zigzag(int64(lanes[ref]))
		if counts {
			v = uint64(lanes[ref])
		}
		if v == 0 {
			zeroRefs++
		} else {
			t.ref.add(v, 1)
		}
		for l := ref + 1; l < 2*ref+1; l++ {
			if d := zigzag(int64(lanes[l]) - int64(lanes[laneRef(l)])); d == 0 {
				zeroDiffs++
			} else {
				t.diff.add(d, 1)
			}
		}
	}
	t.ref.add(0, zeroRefs)
	t.diff.add(0, zeroDiffs)
}

// bodyBytes returns the bytes of a body of the fields' shortest codes and
// extra bits beside them, and sets orders to the fields' orders.
//
//dbtf:noalloc
func bodyBytes(orders []uint, extra int, fields ...*golombTally) int {
	n := len(fields)*orderBits + extra
	for i, f := range fields {
		var size int
		orders[i], size = f.best()
		n += size
	}
	return (n + 7) / 8
}

// replyBody is the body an eval reply carries its lanes in: grouped or
// plain, its bytes, the orders of its fields and, grouped, how many rows
// it lists.
type replyBody struct {
	grouped bool
	size    int
	orders  [groupedFields]uint
	listed  int
}

// plainBody returns the plain body carrying deltas, lanes to a row.
//
//dbtf:noalloc
func plainBody(deltas []int32, lanes int) replyBody {
	var t laneTally
	for i := 0; i < len(deltas); i += lanes {
		t.add(deltas[i:i+lanes], false)
	}
	var b replyBody
	b.size = bodyBytes(b.orders[:fieldGap], 0, &t.ref, &t.diff)
	return b
}

// deltasSize returns the bytes of a plain eval reply's body carrying
// deltas, lanes to a row: the header excluded.
func deltasSize(deltas []int32, lanes int) int { return plainBody(deltas, lanes).size }

// groupedReplyBody returns the grouped body carrying deltas as s splits
// them, and whether it is one to send instead of a plain body of limit
// bytes: whether s splits deltas — every row's lanes are its group's base
// less twice whole hits — and the grouped body is under limit bytes. Every
// code is at least a bit, so it stops tallying once the orders and a bit
// per value tallied fill limit − 1 bytes.
//
//dbtf:noalloc
func groupedReplyBody(s *split, deltas []int32, limit int) (replyBody, bool) {
	var bases, hits laneTally
	var gaps golombTally
	var b replyBody
	b.grouped = true
	for g := 0; g < s.groups.n; g++ {
		bases.add(s.groupBase(g), true)
	}
	// floor is a bound below the body's bits: the orders, the listed count
	// and the values tallied so far, a bit each.
	floor, most := groupedFields*orderBits+1+s.groups.n*s.lanes, 8*(limit-1)
	prev, rows := -1, len(deltas)/s.lanes
	for r := 0; r < rows && floor <= most; r++ {
		h, ok := s.hits(r, deltas)
		if !ok {
			return b, false
		}
		if anyHit(h) {
			gaps.add(uint64(r-prev-1), 1)
			hits.add(h, true)
			b.listed, prev = b.listed+1, r
			floor += 1 + s.lanes
		}
	}
	if floor > most {
		return b, false
	}
	b.size = bodyBytes(b.orders[:], bitvec.ExpGolombBits(uint64(b.listed), 0), &bases.ref, &bases.diff, &gaps, &hits.ref, &hits.diff)
	return b, b.size < limit
}

// anyHit reports whether a row's hits are not all zero: whether a grouped
// reply lists the row.
func anyHit(hits []int32) bool {
	for _, h := range hits {
		if h != 0 {
			return true
		}
	}
	return false
}

// replyFor returns the body of the eval reply carrying deltas: grouped when
// s splits deltas and the grouped body is strictly smaller than the plain
// one, so a reply never grows past its plain body.
//
//dbtf:noalloc
func replyFor(s *split, deltas []int32) replyBody {
	plain := plainBody(deltas, s.lanes)
	if grouped, ok := groupedReplyBody(s, deltas, plain.size); ok {
		return grouped
	}
	return plain
}

// replySize returns the body bytes of the eval reply carrying deltas — the
// header excluded, which is what the driver's Collect charges for it — and
// whether that body is grouped (see replyFor). A simulated stage task calls
// it on its lane goroutine.
//
//dbtf:noalloc
func replySize(s *split, deltas []int32) (int, bool) {
	b := replyFor(s, deltas)
	return b.size, b.grouped
}

// appendReply packs one eval task's lanes onto dst, in the body replySize
// picks, growing dst once to the reply's exact size.
func appendReply(dst []byte, s *split, deltas []int32) []byte {
	b := replyFor(s, deltas)
	if b.grouped {
		return appendGrouped(dst, s, deltas, b)
	}
	return appendDeltas(dst, deltas, s.lanes, b)
}

// appendGrouped packs deltas onto dst as b, the grouped body
// groupedReplyBody prices for s's split of them, growing dst once to the
// reply's exact size.
func appendGrouped(dst []byte, s *split, deltas []int32, b replyBody) []byte {
	rows := len(deltas) / s.lanes
	dst = slices.Grow(dst, deltasHeaderLen+b.size)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(rows))
	dst = append(dst, byte(s.lanes)|groupedBody)
	w := writeOrders(dst, b.orders[:])
	w.ExpGolomb(uint64(b.listed), 0)
	for g := 0; g < s.groups.n; g++ {
		writeLanes(&w, s.groupBase(g), true, b.orders[fieldRef:])
	}
	prev := -1
	for r := 0; r < rows; r++ {
		if hits, _ := s.hits(r, deltas); anyHit(hits) {
			w.ExpGolomb(uint64(r-prev-1), b.orders[fieldGap])
			writeLanes(&w, hits, true, b.orders[fieldHitRef:])
			prev = r
		}
	}
	return w.Pad()
}

// writeOrders starts a body on dst with its fields' orders.
func writeOrders(dst []byte, orders []uint) bitvec.BitWriter {
	w := bitvec.NewBitWriter(dst)
	for _, k := range orders {
		w.Write(uint64(k), orderBits)
	}
	return w
}

// writeLanes writes an entry's lanes as laneCode codes them, at orders,
// the reference and difference fields' orders.
func writeLanes(w *bitvec.BitWriter, lanes []int32, counts bool, orders []uint) {
	for l := range lanes {
		v, field := laneCode(lanes, l, counts)
		w.ExpGolomb(v, orders[field])
	}
}

// appendDeltas packs one eval task's per-row error differences, lanes to a
// row (see columnTask.deltas for why int32 carries them), onto dst as b,
// the plain body plainBody prices for them, growing dst once to the reply's
// exact size.
func appendDeltas(dst []byte, deltas []int32, lanes int, b replyBody) []byte {
	dst = slices.Grow(dst, deltasHeaderLen+b.size)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(deltas)/lanes))
	dst = append(dst, byte(lanes))
	w := writeOrders(dst, b.orders[:fieldGap])
	for i := 0; i < len(deltas); i += lanes {
		writeLanes(&w, deltas[i:i+lanes], false, b.orders[:])
	}
	return w.Pad()
}

// groupedReply reports whether an eval reply's header marks a grouped body.
func groupedReply(payload []byte) bool {
	return len(payload) >= deltasHeaderLen && payload[4]&groupedBody != 0
}

// readOrders reads a body's field orders into orders.
func readOrders(br *bitvec.BitReader, orders []uint) bool {
	for i := range orders {
		k, ok := br.Bits(orderBits)
		if !ok {
			return false
		}
		orders[i] = uint(k)
	}
	return true
}

// readCode reads one value of a field at order k whose values are below
// 2^valueBits: a longer zero prefix than such a value needs is refused, as
// is a code cut short. It tallies what it reads.
func readCode(br *bitvec.BitReader, k uint, valueBits int, f *golombTally) (uint64, bool) {
	v, ok := br.ExpGolomb(k, valueBits-int(k))
	if ok {
		f.add(v, 1)
	}
	return v, ok
}

// endBody checks what follows a body's last code: zero padding to a byte
// and nothing after it, and that every field was coded at the order the
// encoder picks for its values.
func endBody(br *bitvec.BitReader, orders []uint, fields ...*golombTally) error {
	if !br.Align() {
		return errors.New("a nonzero bit pads the body")
	}
	if n := br.Left() / 8; n != 0 {
		return fmt.Errorf("%d trailing bytes", n)
	}
	for i, f := range fields {
		if k, _ := f.best(); k != orders[i] {
			return fmt.Errorf("field %d is coded at order %d, its values at %d", i, orders[i], k)
		}
	}
	return nil
}

// decodeReply unpacks an eval reply of either body kind into
// dst[:rows·lanes]. A grouped body is read against s, which the caller has
// grouped for the stage (split.rowGroups) exactly as the task that encoded
// it had; its bases are left in s. Either way the one payload that decodes
// to dst is the one appendReply makes of it: a grouped body must be
// strictly smaller than the plain one, list exactly the rows with a hit,
// in order, and hold every check of decodeDeltas.
func decodeReply(payload []byte, s *split, rows, lanes int, dst []int32) error {
	if !groupedReply(payload) {
		return decodeDeltas(payload, rows, lanes, dst)
	}
	if n, l := int(binary.LittleEndian.Uint32(payload)), int(payload[4]&^groupedBody); n != rows || l != lanes {
		return fmt.Errorf("core: grouped deltas payload has %d rows of %d lanes, want %d of %d", n, l, rows, lanes)
	}
	br := bitvec.NewBitReader(payload[deltasHeaderLen:])
	var orders [groupedFields]uint
	var bases, hits laneTally
	var gaps golombTally
	if !readOrders(&br, orders[:]) {
		return errors.New("core: grouped deltas payload: the orders are cut short")
	}
	listed, ok := br.ExpGolomb(0, rowBits)
	if !ok || listed > uint64(rows) {
		return fmt.Errorf("core: grouped deltas payload: the count of rows with hits is cut short, over-long or over %d", rows)
	}
	for g := 0; g < s.groups.n; g++ {
		if err := readCounts(&br, s.groupBase(g), orders[fieldRef:], &bases); err != nil {
			return fmt.Errorf("core: grouped deltas payload: base of group %d: %w", g, err)
		}
	}
	dst = dst[:rows*lanes]
	for r, g := range s.groups.of[:rows] {
		copy(dst[r*lanes:], s.groupBase(int(g)))
	}
	prev := -1
	for i := uint64(0); i < listed; i++ {
		gap, ok := readCode(&br, orders[fieldGap], rowBits, &gaps)
		if !ok || gap >= uint64(rows-prev-1) {
			return fmt.Errorf("core: grouped deltas payload: the gap before listed row %d is cut short, over-long or past row %d", i, rows-1)
		}
		r := prev + 1 + int(gap)
		h := s.hitRow[:lanes]
		if err := readCounts(&br, h, orders[fieldHitRef:], &hits); err != nil {
			return fmt.Errorf("core: grouped deltas payload: hits of row %d: %w", r, err)
		}
		if !anyHit(h) {
			return fmt.Errorf("core: grouped deltas payload: row %d is listed with no hit", r)
		}
		row := dst[r*lanes:][:lanes]
		for l, n := range h {
			v := int64(row[l]) - 2*int64(n)
			if v < math.MinInt32 {
				return fmt.Errorf("core: grouped deltas payload: lane %d of row %d is %d, outside int32", l, r, v)
			}
			row[l] = int32(v)
		}
		prev = r
	}
	if err := endBody(&br, orders[:], &bases.ref, &bases.diff, &gaps, &hits.ref, &hits.diff); err != nil {
		return fmt.Errorf("core: grouped deltas payload: %w", err)
	}
	if size, plain := len(payload)-deltasHeaderLen, deltasSize(dst, lanes); size >= plain {
		return fmt.Errorf("core: grouped deltas payload of %d bytes is not smaller than the plain body's %d", size, plain)
	}
	return nil
}

// readCounts reads a grouped body's lanes of counts — a group's bases or a
// row's hits — into dst, each landing in [0, MaxInt32], at orders, the
// reference and difference fields' orders, tallying them in t.
func readCounts(br *bitvec.BitReader, dst []int32, orders []uint, t *laneTally) error {
	for l := range dst {
		f, k, valueBits, ref := &t.ref, orders[fieldRef], countBits, laneRef(l)
		if ref >= 0 {
			f, k, valueBits = &t.diff, orders[fieldDiff], countDiffBits
		}
		u, ok := readCode(br, k, valueBits, f)
		if !ok {
			return fmt.Errorf("lane %d is cut short or over-long", l)
		}
		// Both codes' bounds keep the add below inside int64.
		v := int64(u)
		if ref >= 0 {
			v = int64(dst[ref]) + unzigzag(u)
		}
		if v < 0 || v > math.MaxInt32 {
			return fmt.Errorf("lane %d is not a count inside int32", l)
		}
		dst[l] = int32(v)
	}
	return nil
}

// decodeDeltas unpacks a plain eval payload into dst[:rows·lanes], insisting
// on exactly rows rows of lanes lanes and not a byte more — the driver knows
// the factor's row count and the stage's span, and a mismatched executor
// must fail loudly, not silently mis-commit columns. Every lane must land
// inside int32 and every field be coded at the order appendDeltas picks, so
// the one payload that decodes to dst is appendDeltas(dst).
func decodeDeltas(payload []byte, rows, lanes int, dst []int32) error {
	if len(payload) < deltasHeaderLen {
		return fmt.Errorf("core: deltas payload truncated: %d bytes", len(payload))
	}
	if n, l := int(binary.LittleEndian.Uint32(payload)), int(payload[4]); n != rows || l != lanes {
		return fmt.Errorf("core: deltas payload has %d rows of %d lanes, want %d of %d", n, l, rows, lanes)
	}
	br := bitvec.NewBitReader(payload[deltasHeaderLen:])
	var orders [fieldGap]uint
	var t laneTally
	if !readOrders(&br, orders[:]) {
		return errors.New("core: deltas payload: the orders are cut short")
	}
	for i := 0; i < rows*lanes; i += lanes {
		row := dst[i : i+lanes]
		for l := range row {
			f, k, valueBits, ref := &t.ref, orders[fieldRef], laneBits, laneRef(l)
			if ref >= 0 {
				f, k, valueBits = &t.diff, orders[fieldDiff], laneDiffBits
			}
			u, ok := readCode(&br, k, valueBits, f)
			if !ok {
				return fmt.Errorf("core: deltas payload: value %d of %d is cut short or over-long", i+l, rows*lanes)
			}
			v := unzigzag(u)
			if ref >= 0 {
				v += int64(row[ref])
			}
			if v < math.MinInt32 || v > math.MaxInt32 {
				return fmt.Errorf("core: deltas payload: lane %d of row %d is %d, outside int32", l, i/lanes, v)
			}
			row[l] = int32(v)
		}
	}
	if err := endBody(&br, orders[:], &t.ref, &t.diff); err != nil {
		return fmt.Errorf("core: deltas payload: %w", err)
	}
	return nil
}

// encodePartial packs one total-error task's partial sum (KindTotalError's
// result payload).
func encodePartial(e int64) []byte {
	var out [8]byte
	binary.LittleEndian.PutUint64(out[:], uint64(e))
	return out[:]
}

func decodePartial(payload []byte) (int64, error) {
	if len(payload) != 8 {
		return 0, fmt.Errorf("core: partial-error payload is %d bytes, want 8", len(payload))
	}
	return int64(binary.LittleEndian.Uint64(payload)), nil
}

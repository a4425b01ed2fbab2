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
	"dbtf/internal/slab"
	"dbtf/internal/sumcache"
	"dbtf/internal/tensor"
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

// encodeSetup builds machine home's set-up blob (StateSetup for the machine
// itself, StateReship for the survivor that inherits its partitions): the
// header, then for each mode the set-up bodies of the partitions homed on
// it — pi ≡ home mod M — in partition order (partition.AppendBody). Those
// of modes 2 and 3 leave out what partition.NewCarry carries, the nonzeros
// whose mode-1 partition is homed on the same machine: a blob holds its
// machine's mode-1 partitions whether it is the machine's own set-up or a
// re-ship of a lost one. That is all a worker holds of the tensor. The
// blob is taken once from the slab pool, at its exact size, from the body
// sizes the partitioning counted; the transport it is handed to owns it
// from then on (transport.Transport).
func encodeSetup(cfg runConfig, dims [3]int, home int, px [3]*partition.Partitioned) []byte {
	size := setupHeaderLen
	for _, p := range px {
		for pi := home; pi < len(p.Parts); pi += cfg.Machines {
			size += int(p.ReshipBytes(pi))
		}
	}
	blob := slab.Bytes(size)[:0]
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
	if err := checkDims(s.dims); err != nil {
		return s, fmt.Errorf("core: setup: %w", err)
	}
	if s.home >= cfg.Machines {
		return s, fmt.Errorf("core: setup blob for machine %d of %d", s.home, cfg.Machines)
	}
	var held *partition.Columns
	for m := range s.px {
		mode := tensor.Mode(m + 1)
		carry := partition.NewCarry(s.dims, mode, cfg.Machines, cfg.Partitions)
		px, after, err := partition.Receive(s.dims, mode, cfg.Partitions, s.home, cfg.Machines, carry, held, rest)
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
// layout (StateFactors), into a blob taken from the slab pool at the
// layout's size — per matrix an 8-byte header (rows, rank) and one 8-byte
// row mask per row — which the transport it is handed to owns from then on.
func encodeFactors(a, b, c *boolmat.FactorMatrix) []byte {
	out := slab.Bytes(8 * (3 + a.Rows() + b.Rows() + c.Rows()))[:0]
	out = a.AppendBinary(out)
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
// first column, u32 row count. A stage replicates its commit as the
// positions r·span + j of the entries it flipped (row r, column col+j),
// ascending, and the body codes them as a bit string, MSB first and
// zero-padded to a byte: one orderBits-wide order, the flip count as an
// order-0 Exp-Golomb code, then each position as its distance from the one
// before — the first's from −1 — at that order, the one that codes the
// distances shortest.
const columnHeaderLen = 8

// flipBits bounds the codes of a push's flip count and distances as
// countBits does a reply's: the decoder refuses a zero prefix longer than a
// value of flipBits bits needs at the code's order, which still reads
// every value below 2^33 − 2^maxOrder and keeps the tally's values below
// 2^33. Every mode's length is a factor of another unfolding's columns,
// which checkDims keeps within int32, so a factor has fewer than 2^31 rows
// and a stage of at most lookahead columns fewer than 3·2^31 entries: a
// count or a distance is always in reach.
const flipBits = 32

// priceFlips returns the order a push of the flips at positions pos codes
// their distances at, and the push's body bytes, the header excluded —
// what the push is charged as broadcast.
func priceFlips(pos []uint64) (order uint, size int) {
	var tally golombTally
	prev := ^uint64(0) // −1: the first distance is the position + 1
	for _, p := range pos {
		tally.add(p-prev, 1)
		prev = p
	}
	order, bits := tally.best()
	return order, (orderBits + bitvec.ExpGolombBits(uint64(len(pos)), 0) + bits + 7) / 8
}

// appendFlips packs onto dst, at its exact size, the StateColumn push of
// the flips at positions pos in the stage of span columns from col of
// mode's factor, rows tall.
func appendFlips(dst []byte, mode, col, span, rows int, pos []uint64) []byte {
	order, size := priceFlips(pos)
	dst = slices.Grow(dst, columnHeaderLen+size)
	dst = append(dst, byte(mode), byte(span))
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

// applyFlips toggles, in the matrix f holds for the push's mode, the
// entries a StateColumn push lists. A push is applied whole or not at all:
// it is read through once before anything is toggled. The one payload that applies is the one appendFlips makes
// for the matrix: a mode, span and columns inside its shape and its row
// count, at least one flip and no more than the bits left could list,
// positions strictly increasing and below rows·span, the distances coded
// at the order the encoder picks for them, a zero pad and no byte after
// it; and none applies before the factors are installed.
func applyFlips(payload []byte, f [3]*boolmat.FactorMatrix) error {
	if len(payload) < columnHeaderLen {
		return fmt.Errorf("core: column push truncated: %d bytes", len(payload))
	}
	mode, span := int(payload[0]), int(payload[1])
	col := int(binary.LittleEndian.Uint16(payload[2:]))
	rows := int(binary.LittleEndian.Uint32(payload[4:]))
	if mode > 2 || span < 1 || span > lookahead {
		return fmt.Errorf("core: column push of mode %d and %d columns, want a mode in [0,2] and 1 to %d columns", mode, span, lookahead)
	}
	m := f[modeRoles[mode].upd]
	if m == nil {
		return errors.New("core: column push before factors")
	}
	if rows != m.Rows() || col+span > m.Rank() {
		return fmt.Errorf("core: column push of %d rows, columns [%d,%d), does not fit a %dx%d factor",
			rows, col, col+span, m.Rows(), m.Rank())
	}
	body := payload[columnHeaderLen:]
	if err := readFlips(body, rows, span, nil, col); err != nil {
		return err
	}
	// The body was just read through without an error; reading it again
	// cannot fail.
	_ = readFlips(body, rows, span, m, col)
	return nil
}

// readFlips reads a push's body of flips in a stage of span columns,
// rows tall, refusing what appendFlips would not make, and toggles each
// flipped entry of m's columns from col unless m is nil.
func readFlips(body []byte, rows, span int, m *boolmat.FactorMatrix, col int) error {
	br := bitvec.NewBitReader(body)
	order, ok := br.Bits(orderBits)
	if !ok {
		return errors.New("core: column push: the order is cut short")
	}
	count, ok := br.ExpGolomb(0, flipBits)
	if !ok || count == 0 || count > uint64(br.Left()) {
		return errors.New("core: column push: the flip count is cut short, over-long, zero or above the bits left")
	}
	var tally golombTally
	limit, prev := uint64(rows)*uint64(span), ^uint64(0)
	for i := uint64(0); i < count; i++ {
		d, ok := readCode(&br, uint(order), flipBits, &tally)
		if !ok || d == 0 || d > limit-(prev+1) {
			return fmt.Errorf("core: column push: flip %d is cut short, over-long, repeated or at or past %d", i, limit)
		}
		prev += d
		if m != nil {
			r, c := int(prev/uint64(span)), col+int(prev%uint64(span))
			m.Set(r, c, !m.Get(r, c))
		}
	}
	if !br.Align() {
		return errors.New("core: column push: a nonzero bit pads the body")
	}
	if n := br.Left() / 8; n != 0 {
		return fmt.Errorf("core: column push: %d trailing bytes", n)
	}
	if k, _ := tally.best(); k != uint(order) {
		return fmt.Errorf("core: column push: the flips are coded at order %d, their distances at %d", order, k)
	}
	return nil
}

// deltasHeaderLen is KindEval's result header: u32 row count, u8 lanes per
// row. The body carries the stage's split (see split) less what the driver
// knows: a bit string of Exp-Golomb codes, MSB first and zero-padded to a
// byte, that opens with one orderBits-wide order per field — row gap, hit
// reference, hit difference, region size — and codes every value of a
// field at that order. After the orders come the count of rows with a hit,
// as an order-0 code; for each such row, ascending, the rows skipped since
// the one before and its hit lanes, a lane whose outcome index is not 0 as
// its difference from its laneRef, zigzagged; then one region size per
// lookup of the stage's walk (split.walk), in walk order, less the Full
// blocks' sizes the reply has sent before (split.memo). The driver walks
// the same lookups to rebuild the groups' bases.
const deltasHeaderLen = 5

// orderBits is the width of a field's order, and maxOrder the largest
// order it holds.
const (
	orderBits = 4
	maxOrder  = 1<<orderBits - 1
)

// An eval reply's fields.
const (
	fieldGap = iota
	fieldHitRef
	fieldHitDiff
	fieldSize
	replyFields
)

// Value bounds, in bits, of the fields' codes: the decoder refuses a zero
// prefix longer than a value of that many bits needs at the field's order.
// A hit or a region size is a count at most MaxInt32, and a difference of
// two hits within ±MaxInt32; a row gap and the count of listed rows are
// below the row count, a u32.
const (
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

// laneCode is what a reply carries for lane l of a row's hits, and its
// field: a reference lane as the count it is, another as its difference
// from its reference, zigzagged.
func laneCode(hits []int32, l int) (uint64, int) {
	if ref := laneRef(l); ref >= 0 {
		return zigzag(int64(hits[l]) - int64(hits[ref])), fieldHitDiff
	}
	return uint64(hits[l]), fieldHitRef
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
	// carry start s; every field's values are below 2^(countDiffBits+1).
	// A reply codes fewer than 2^31 values a field.
	lengths, starts [countDiffBits + 2]int32
}

// add tallies n values v.
func (f *golombTally) add(v uint64, n int) {
	f.lengths[bits.Len64(v)] += int32(n)
	f.starts[bits.Len64(^v&(v>>1))] += int32(n)
}

// reset forgets every value tallied.
func (f *golombTally) reset() {
	clear(f.lengths[:])
	clear(f.starts[:])
}

// best returns the order in [0, maxOrder] that codes the tallied values in
// the fewest bits, the smaller order on a tie, and those bits. The values
// carrying at order k are those whose carry start is at most k less those
// whose length is. Past the longest value's bit length every value costs
// k+1 bits, so no larger order is shorter.
func (f *golombTally) best() (order uint, size int) {
	top, count, sum := 0, 0, 0
	for b, n := range f.lengths {
		if n != 0 {
			top, count, sum = b, count+int(n), sum+b*int(n)
		}
	}
	// short and shortSum are the values of bit length at most k and their
	// lengths summed, started those of carry start at most k.
	short, shortSum, started := 0, 0, 0
	for k := 0; k <= min(top, maxOrder); k++ {
		short, shortSum, started = short+int(f.lengths[k]), shortSum+k*int(f.lengths[k]), started+int(f.starts[k])
		n := (k+1)*short + 2*(sum-shortSum) - (k+1)*(count-short) + 2*(started-short)
		if k == 0 || n < size {
			order, size = uint(k), n
		}
	}
	return order, size
}

// tallyLanes tallies a row's hit lanes in their two fields, as laneCode
// codes them: column by column, its reference lane, the first, and the
// differences of the others. Most differences are zero, and it adds the
// zeros up in one go.
func tallyLanes(fields *[replyFields]golombTally, hits []int32) {
	zeroRefs, zeroDiffs := 0, 0
	for ref := 0; ref < len(hits); ref = 2*ref + 1 {
		if v := uint64(hits[ref]); v == 0 {
			zeroRefs++
		} else {
			fields[fieldHitRef].add(v, 1)
		}
		for l := ref + 1; l < 2*ref+1; l++ {
			if d := zigzag(int64(hits[l]) - int64(hits[laneRef(l)])); d == 0 {
				zeroDiffs++
			} else {
				fields[fieldHitDiff].add(d, 1)
			}
		}
	}
	fields[fieldHitRef].add(0, zeroRefs)
	fields[fieldHitDiff].add(0, zeroDiffs)
}

// anyHit reports whether a row's hits are not all zero: whether the reply
// lists the row.
func anyHit(hits []int32) bool {
	for _, h := range hits {
		if h != 0 {
			return true
		}
	}
	return false
}

// replyBody is an eval reply's body as priced: its bytes — the header
// excluded, which is what the driver's Collect charges for it — the rows it
// lists and its fields' orders.
type replyBody struct {
	size, listed int
	orders       [replyFields]uint
}

// price prices the reply of the stage s holds from hits, rows × lanes of
// them, and the sizes its walk tallied: the rows with a hit, each with the
// rows skipped since the one before and its hit lanes, then the sizes,
// every field at its shortest order. The column task prices as it
// evaluates, before expand turns the hits into lanes, so a simulated stage
// sizes its reply on its lane goroutine.
func (s *split) price(hits []int32) {
	var fields [replyFields]golombTally
	listed, prev := 0, -1
	for r := 0; r < s.rows; r++ {
		if h := hits[r*s.lanes:][:s.lanes]; anyHit(h) {
			fields[fieldGap].add(uint64(r-prev-1), 1)
			tallyLanes(&fields, h)
			listed, prev = listed+1, r
		}
	}
	fields[fieldSize] = s.sized
	n := replyFields*orderBits + bitvec.ExpGolombBits(uint64(listed), 0)
	for i := range fields {
		var bits int
		s.body.orders[i], bits = fields[i].best()
		n += bits
	}
	s.body.size, s.body.listed = (n+7)/8, listed
}

// appendReply packs a worker's eval reply onto dst, growing dst once to
// the reply's exact size: hits, rows × lanes, are the task's unexpanded
// lanes, and s holds the sizes it sent and the body price made of them.
func appendReply(dst []byte, s *split, hits []int32) []byte {
	b := &s.body
	dst = slices.Grow(dst, deltasHeaderLen+b.size)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(s.rows))
	dst = append(dst, byte(s.lanes))
	w := bitvec.NewBitWriter(dst)
	for _, k := range b.orders {
		w.Write(uint64(k), orderBits)
	}
	w.ExpGolomb(uint64(b.listed), 0)
	prev := -1
	for r := 0; r < s.rows; r++ {
		if h := hits[r*s.lanes:][:s.lanes]; anyHit(h) {
			w.ExpGolomb(uint64(r-prev-1), b.orders[fieldGap])
			for l := range h {
				v, field := laneCode(h, l)
				w.ExpGolomb(v, b.orders[field])
			}
			prev = r
		}
	}
	for _, v := range s.sizes {
		w.ExpGolomb(uint64(v), b.orders[fieldSize])
	}
	return w.Pad()
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

// decodeReply unpacks a partition's eval reply for the stage deciding
// columns [c, c+span) of a, the factor under update, into dst[:rows·lanes],
// against the partition's blocks, whose PVM masks are mf's rows. It groups
// the rows in s as the task did and walks the task's lookups, taking each
// region size from the reply or the memo, to rebuild the bases; its bases
// are left in s. The one payload that decodes is the one appendReply makes:
// exactly the rows and lanes the driver asked for, every field coded at the
// order the encoder picks for its values, listed rows in range, in order
// and each with a hit, one region size per lookup the walk does not take
// from the memo, each within its block, every hit at most its base, a zero
// pad and no byte after it.
func decodeReply(payload []byte, s *split, a, mf *boolmat.FactorMatrix, blocks []partition.Block, c, span int, dst []int32) error {
	rows, lanes := a.Rows(), laneCount(span)
	if len(payload) < deltasHeaderLen {
		return fmt.Errorf("core: eval reply truncated: %d bytes", len(payload))
	}
	if n, l := int(binary.LittleEndian.Uint32(payload)), int(payload[4]); n != rows || l != lanes {
		return fmt.Errorf("core: eval reply has %d rows of %d lanes, want %d of %d", n, l, rows, lanes)
	}
	s.rowGroups(a, mf, blocks, c, span)
	s.br = bitvec.NewBitReader(payload[deltasHeaderLen:])
	br, orders := &s.br, &s.body.orders
	for i := range orders {
		k, ok := br.Bits(orderBits)
		if !ok {
			return errors.New("core: eval reply: the orders are cut short")
		}
		orders[i] = uint(k)
	}
	listed, ok := br.ExpGolomb(0, rowBits)
	if !ok || listed > uint64(rows) {
		return fmt.Errorf("core: eval reply: the count of rows with hits is cut short, over-long or over %d", rows)
	}
	var fields [replyFields]golombTally
	dst = dst[:rows*lanes]
	clear(dst)
	prev := -1
	for i := uint64(0); i < listed; i++ {
		gap, ok := readCode(br, orders[fieldGap], rowBits, &fields[fieldGap])
		if !ok || gap >= uint64(rows-prev-1) {
			return fmt.Errorf("core: eval reply: the gap before listed row %d is cut short, over-long or past row %d", i, rows-1)
		}
		r := prev + 1 + int(gap)
		h := dst[r*lanes:][:lanes]
		if err := readHits(br, h, orders, &fields); err != nil {
			return fmt.Errorf("core: eval reply: hits of row %d: %w", r, err)
		}
		if !anyHit(h) {
			return fmt.Errorf("core: eval reply: row %d is listed with no hit", r)
		}
		prev = r
	}
	if !s.walk(s, blocks, mf, c, span) {
		return errors.New("core: eval reply: the region sizes are cut short, over-long or past their block's width")
	}
	if !br.Align() {
		return errors.New("core: eval reply: a nonzero bit pads the body")
	}
	if n := br.Left() / 8; n != 0 {
		return fmt.Errorf("core: eval reply: %d trailing bytes", n)
	}
	fields[fieldSize] = s.sized
	for i := range fields {
		if k, _ := fields[i].best(); k != orders[i] {
			return fmt.Errorf("core: eval reply: field %d is coded at order %d, its values at %d", i, orders[i], k)
		}
	}
	if !s.expand(dst) {
		return errors.New("core: eval reply: a row's hits exceed its group's base")
	}
	return nil
}

// readHits reads a row's hit lanes into dst, each landing in [0,
// MaxInt32], at the reply's orders, tallying them in fields.
func readHits(br *bitvec.BitReader, dst []int32, orders *[replyFields]uint, fields *[replyFields]golombTally) error {
	for l := range dst {
		field, valueBits, ref := fieldHitRef, countBits, laneRef(l)
		if ref >= 0 {
			field, valueBits = fieldHitDiff, countDiffBits
		}
		u, ok := readCode(br, orders[field], valueBits, &fields[field])
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

package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"slices"

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
// row, the lanes byte's high bit (groupedBody) marking a grouped body. A
// plain body follows as rows × lanes zigzag uvarints, row by row, each the
// lane's wireValue. A grouped body carries the stage's split instead (see
// split): every group's base lanes, in group order; the count of rows with
// a hit; then for each such row, ascending, its gap from the one before
// (the first row's gap is its index) and its hit lanes. Every value of a
// grouped body is a uvarint, a count lane being its countValue.
const deltasHeaderLen = 5

// groupedBody marks a grouped body in the header's lanes byte.
const groupedBody = 0x80

// wireValue is what a plain eval reply carries for lane l of a row: the
// lane itself, except that the second outcome of a pair (lane 2 of a
// two-column stage) goes as its difference from the first. The two differ
// only on blocks whose PVM mask holds both columns' bits, so the difference
// is mostly zero.
func wireValue(row []int32, l int) int64 {
	v := int64(row[l])
	if secondOutcome(l) {
		v -= int64(row[l-1])
	}
	return v
}

// countValue is what a grouped reply carries for lane l of a group's bases
// or a row's hits, counts that are never negative: the count itself, except
// that the second outcome of a pair goes as the zigzag of its difference
// from the first, as in wireValue.
func countValue(counts []int32, l int) uint64 {
	if secondOutcome(l) {
		return zigzag(int64(counts[l]) - int64(counts[l-1]))
	}
	return uint64(counts[l])
}

// secondOutcome reports whether lane l is the second of a pair of lanes in
// heap order: the one the reply sends as a difference.
func secondOutcome(l int) bool { return l > 0 && l%2 == 0 }

// zigzag maps small magnitudes of either sign to small unsigned values;
// unzigzag is its inverse.
func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// uvarintLen is the length of u's minimal uvarint.
func uvarintLen(u uint64) int { return (bits.Len64(u|1) + 6) / 7 }

// rowGap is what a grouped reply carries for listed row r after listed row
// prev, −1 before the first.
func rowGap(r, prev int) uint64 {
	if prev < 0 {
		return uint64(r)
	}
	return uint64(r - prev)
}

// deltasSize returns the bytes of a plain eval reply's body carrying
// deltas, lanes to a row: the header excluded.
//
//dbtf:noalloc
func deltasSize(deltas []int32, lanes int) int {
	n := 0
	for i := 0; i < len(deltas); i += lanes {
		row := deltas[i : i+lanes]
		for l := range row {
			n += uvarintLen(zigzag(wireValue(row, l)))
		}
	}
	return n
}

// groupedSize returns the bytes of the grouped body carrying deltas as s
// splits them, and whether that body is one to send instead of a limit-byte
// plain body: whether s splits deltas — every row's lanes are its group's
// base less twice whole hits — and the body is under limit bytes. It stops
// counting at limit.
//
//dbtf:noalloc
func groupedSize(s *split, deltas []int32, limit int) (int, bool) {
	n := 1 // the count of listed rows, at least one byte
	for g := 0; g < s.groups.n; g++ {
		base := s.groupBase(g)
		for l := range base {
			n += uvarintLen(countValue(base, l))
		}
	}
	listed, prev := 0, -1
	for r := 0; r < len(deltas)/s.lanes && n < limit; r++ {
		hits, ok := s.hits(r, deltas)
		if !ok {
			return 0, false
		}
		if !anyHit(hits) {
			continue
		}
		n += uvarintLen(rowGap(r, prev))
		for l := range hits {
			n += uvarintLen(countValue(hits, l))
		}
		listed, prev = listed+1, r
	}
	n += uvarintLen(uint64(listed)) - 1
	return n, n < limit
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

// replySize returns the body bytes of the eval reply carrying deltas — the
// header excluded, which is what the driver's Collect charges for it — and
// whether that body is grouped: it is when s splits deltas and the grouped
// body is strictly smaller than the plain one, so a reply never grows past
// its plain body. A simulated stage task calls it on its lane goroutine.
//
//dbtf:noalloc
func replySize(s *split, deltas []int32) (int, bool) {
	plain := deltasSize(deltas, s.lanes)
	if n, ok := groupedSize(s, deltas, plain); ok {
		return n, true
	}
	return plain, false
}

// appendReply packs one eval task's lanes onto dst, in the body replySize
// picks, growing dst once to the reply's exact size.
func appendReply(dst []byte, s *split, deltas []int32) []byte {
	size, grouped := replySize(s, deltas)
	if !grouped {
		return appendDeltas(dst, deltas, s.lanes)
	}
	dst = slices.Grow(dst, deltasHeaderLen+size)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(deltas)/s.lanes))
	dst = append(dst, byte(s.lanes)|groupedBody)
	for g := 0; g < s.groups.n; g++ {
		base := s.groupBase(g)
		for l := range base {
			dst = binary.AppendUvarint(dst, countValue(base, l))
		}
	}
	rows, listed := len(deltas)/s.lanes, 0
	for r := 0; r < rows; r++ {
		if hits, _ := s.hits(r, deltas); anyHit(hits) {
			listed++
		}
	}
	dst = binary.AppendUvarint(dst, uint64(listed))
	prev := -1
	for r := 0; r < rows; r++ {
		hits, _ := s.hits(r, deltas)
		if !anyHit(hits) {
			continue
		}
		dst = binary.AppendUvarint(dst, rowGap(r, prev))
		for l := range hits {
			dst = binary.AppendUvarint(dst, countValue(hits, l))
		}
		prev = r
	}
	return dst
}

// appendDeltas packs one eval task's per-row error differences, lanes to a
// row (see columnTask.deltas for why int32 carries them), onto dst as a
// plain body, growing it once to the reply's exact size.
func appendDeltas(dst []byte, deltas []int32, lanes int) []byte {
	dst = slices.Grow(dst, deltasHeaderLen+deltasSize(deltas, lanes))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(deltas)/lanes))
	dst = append(dst, byte(lanes))
	for i := 0; i < len(deltas); i += lanes {
		row := deltas[i : i+lanes]
		for l := range row {
			dst = binary.AppendUvarint(dst, zigzag(wireValue(row, l)))
		}
	}
	return dst
}

// groupedReply reports whether an eval reply's header marks a grouped body.
func groupedReply(payload []byte) bool {
	return len(payload) >= deltasHeaderLen && payload[4]&groupedBody != 0
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
	body := payload[deltasHeaderLen:]
	var err error
	for g := 0; g < s.groups.n; g++ {
		if body, err = readCounts(body, s.groupBase(g)); err != nil {
			return fmt.Errorf("core: grouped deltas payload: base of group %d: %w", g, err)
		}
	}
	dst = dst[:rows*lanes]
	for r, g := range s.groups.of[:rows] {
		copy(dst[r*lanes:], s.groupBase(int(g)))
	}
	listed, n := binary.Uvarint(body)
	if n <= 0 || n != uvarintLen(listed) || listed > uint64(rows) {
		return fmt.Errorf("core: grouped deltas payload: the count of rows with hits is truncated, not a minimal uvarint or over %d", rows)
	}
	body = body[n:]
	prev := -1
	for i := uint64(0); i < listed; i++ {
		gap, n := binary.Uvarint(body)
		if n <= 0 || n != uvarintLen(gap) {
			return fmt.Errorf("core: grouped deltas payload: gap %d is truncated or not a minimal uvarint", i)
		}
		body = body[n:]
		from := max(prev, 0)
		if prev >= 0 && gap == 0 || gap >= uint64(rows-from) {
			return fmt.Errorf("core: grouped deltas payload: listed row %d is out of order or past row %d", i, rows-1)
		}
		r := from + int(gap)
		hits := s.hitRow[:lanes]
		if body, err = readCounts(body, hits); err != nil {
			return fmt.Errorf("core: grouped deltas payload: hits of row %d: %w", r, err)
		}
		if !anyHit(hits) {
			return fmt.Errorf("core: grouped deltas payload: row %d is listed with no hit", r)
		}
		row := dst[r*lanes:][:lanes]
		for l, h := range hits {
			v := int64(row[l]) - 2*int64(h)
			if v < math.MinInt32 {
				return fmt.Errorf("core: grouped deltas payload: lane %d of row %d is %d, outside int32", l, r, v)
			}
			row[l] = int32(v)
		}
		prev = r
	}
	if len(body) != 0 {
		return fmt.Errorf("core: %d trailing bytes after grouped deltas", len(body))
	}
	if size, plain := len(payload)-deltasHeaderLen, deltasSize(dst, lanes); size >= plain {
		return fmt.Errorf("core: grouped deltas payload of %d bytes is not smaller than the plain body's %d", size, plain)
	}
	return nil
}

// readCounts reads a grouped body's lanes of counts — a group's bases or a
// row's hits — into dst, each a minimal uvarint landing in [0, MaxInt32],
// and returns the rest of the body.
func readCounts(body []byte, dst []int32) ([]byte, error) {
	for l := range dst {
		u, n := binary.Uvarint(body)
		if n <= 0 || n != uvarintLen(u) {
			return nil, fmt.Errorf("lane %d is truncated or not a minimal uvarint", l)
		}
		body = body[n:]
		// A difference of two counts lies within ±MaxInt32: its zigzag is at
		// most twice that, and the add below cannot overflow.
		v := int64(u)
		if secondOutcome(l) && u <= 2*math.MaxInt32 {
			v = int64(dst[l-1]) + unzigzag(u)
		}
		if u > 2*math.MaxInt32 || v < 0 || v > math.MaxInt32 {
			return nil, fmt.Errorf("lane %d is not a count inside int32", l)
		}
		dst[l] = int32(v)
	}
	return body, nil
}

// decodeDeltas unpacks a plain eval payload into dst[:rows·lanes], insisting
// on exactly rows rows of lanes lanes and not a byte more — the driver knows
// the factor's row count and the stage's span, and a mismatched executor
// must fail loudly, not silently mis-commit columns. Every value must be a
// minimal uvarint whose lane lands inside int32, so the one payload that
// decodes to dst is appendDeltas(dst).
func decodeDeltas(payload []byte, rows, lanes int, dst []int32) error {
	if len(payload) < deltasHeaderLen {
		return fmt.Errorf("core: deltas payload truncated: %d bytes", len(payload))
	}
	if n, l := int(binary.LittleEndian.Uint32(payload)), int(payload[4]); n != rows || l != lanes {
		return fmt.Errorf("core: deltas payload has %d rows of %d lanes, want %d of %d", n, l, rows, lanes)
	}
	body := payload[deltasHeaderLen:]
	for i := 0; i < rows*lanes; i += lanes {
		row := dst[i : i+lanes]
		for l := range row {
			u, n := binary.Uvarint(body)
			if n <= 0 || n != uvarintLen(u) {
				return fmt.Errorf("core: deltas payload: value %d of %d is truncated or not a minimal uvarint", i+l, rows*lanes)
			}
			body = body[n:]
			v := unzigzag(u)
			if secondOutcome(l) {
				v += int64(row[l-1])
			}
			if v < math.MinInt32 || v > math.MaxInt32 {
				return fmt.Errorf("core: deltas payload: lane %d of row %d is %d, outside int32", l, i/lanes, v)
			}
			row[l] = int32(v)
		}
	}
	if len(body) != 0 {
		return fmt.Errorf("core: %d trailing bytes after %d rows of deltas", len(body), rows)
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

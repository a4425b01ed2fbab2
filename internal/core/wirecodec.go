package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"slices"

	"dbtf/internal/boolmat"
	"dbtf/internal/tensor"
)

// The state and result payloads a remote run ships, in the coordinator →
// executor direction (setup, factors, columns) and back (deltas, partial
// errors). Payloads are opaque to the transport: these codecs define their
// only interpretation, and every decoder validates against the run's known
// shapes so a corrupt or mismatched peer errors instead of computing
// garbage.

// encodeSetup builds StateSetup: the run's resolved configuration, whole —
// one little-endian u64 per runConfig field (see runConfig.words) — followed
// by the tensor in its compact binary format. Everything else — unfolded
// partitions, caches, column tasks — is rebuilt locally from these, which
// is what keeps the blob O(nnz) instead of O(data structures). The blob is
// made once, at its exact size: it is the largest thing a run sends.
func encodeSetup(x *tensor.Tensor, cfg runConfig) []byte {
	words := cfg.words()
	blob := make([]byte, 0, 8*len(words)+x.BinarySize())
	for _, w := range words {
		blob = binary.LittleEndian.AppendUint64(blob, w)
	}
	return x.AppendBinary(blob)
}

func decodeSetup(payload []byte) (runConfig, *tensor.Tensor, error) {
	var cfg runConfig
	words := make([]uint64, reflect.TypeOf(cfg).NumField())
	if len(payload) < 8*len(words) {
		return cfg, nil, fmt.Errorf("core: decode setup: %d bytes, shorter than the %d-byte configuration", len(payload), 8*len(words))
	}
	for n := range words {
		words[n] = binary.LittleEndian.Uint64(payload[8*n:])
	}
	cfg.setWords(words)
	if cfg.Machines < 1 || cfg.Rank < 1 || cfg.Rank > boolmat.MaxRank || cfg.Partitions < 1 || cfg.GroupBits < 1 {
		return cfg, nil, fmt.Errorf("core: setup parameters out of range: machines=%d rank=%d partitions=%d groupbits=%d",
			cfg.Machines, cfg.Rank, cfg.Partitions, cfg.GroupBits)
	}
	x, rest, err := tensor.DecodeBinary(payload[8*len(words):])
	if err != nil {
		return cfg, nil, fmt.Errorf("core: decode setup tensor: %w", err)
	}
	if len(rest) != 0 {
		return cfg, nil, fmt.Errorf("core: %d trailing bytes after setup tensor", len(rest))
	}
	return cfg, x, nil
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
// row. The body follows: rows × lanes zigzag uvarints, row by row, each the
// lane's wireValue.
const deltasHeaderLen = 5

// wireValue is what an eval reply carries for lane l of a row: the lane
// itself, except that the second outcome of a pair (lane 2 of a two-column
// stage) goes as its difference from the first. The two differ only on
// blocks whose PVM mask holds both columns' bits, so the difference is
// mostly zero.
func wireValue(row []int32, l int) int64 {
	v := int64(row[l])
	if secondOutcome(l) {
		v -= int64(row[l-1])
	}
	return v
}

// secondOutcome reports whether lane l is the second of a pair of lanes in
// heap order: the one the reply sends as a difference.
func secondOutcome(l int) bool { return l > 0 && l%2 == 0 }

// zigzag maps small magnitudes of either sign to small unsigned values.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// uvarintLen is the length of u's minimal uvarint.
func uvarintLen(u uint64) int { return (bits.Len64(u|1) + 6) / 7 }

// deltasSize returns the body bytes of the eval reply carrying deltas,
// lanes to a row: the header excluded, which is what the driver's Collect
// charges for it. A simulated stage task calls it on its lane goroutine.
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

// appendDeltas packs one eval task's per-row error differences, lanes to a
// row (see columnTask.deltas for why int32 carries them), onto dst, growing
// it once to the reply's exact size.
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

// decodeDeltas unpacks an eval payload into dst[:rows·lanes], insisting on
// exactly rows rows of lanes lanes and not a byte more — the driver knows
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
			v := int64(u>>1) ^ -int64(u&1) // zigzag's inverse
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

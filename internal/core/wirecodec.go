package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"

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
// is what keeps the blob O(nnz) instead of O(data structures).
func encodeSetup(x *tensor.Tensor, cfg runConfig) ([]byte, error) {
	words := cfg.words()
	head := make([]byte, 0, 8*len(words))
	for _, w := range words {
		head = binary.LittleEndian.AppendUint64(head, w)
	}
	buf := bytes.NewBuffer(head)
	if err := x.WriteBinary(buf); err != nil {
		return nil, fmt.Errorf("core: encode setup tensor: %w", err)
	}
	return buf.Bytes(), nil
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
	x, err := tensor.ReadBinary(bytes.NewReader(payload[8*len(words):]))
	if err != nil {
		return cfg, nil, fmt.Errorf("core: decode setup tensor: %w", err)
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

// columnHeaderLen is the StateColumn header: u8 mode, u8 pad, u16 column,
// u32 row count; the packed column bits follow.
const columnHeaderLen = 8

// encodeColumn snapshots column col of factor matrix m (the factor
// updated in mode modeIdx) as a packed bit vector.
func encodeColumn(modeIdx, col int, m *boolmat.FactorMatrix) []byte {
	rows := m.Rows()
	out := make([]byte, columnHeaderLen+(rows+7)/8)
	out[0] = byte(modeIdx)
	binary.LittleEndian.PutUint16(out[2:], uint16(col))
	binary.LittleEndian.PutUint32(out[4:], uint32(rows))
	for r := 0; r < rows; r++ {
		if m.Get(r, col) {
			out[columnHeaderLen+r/8] |= 1 << uint(r%8)
		}
	}
	return out
}

func decodeColumn(payload []byte) (modeIdx, col, rows int, bits []byte, err error) {
	if len(payload) < columnHeaderLen {
		return 0, 0, 0, nil, fmt.Errorf("core: column payload truncated: %d bytes", len(payload))
	}
	modeIdx = int(payload[0])
	col = int(binary.LittleEndian.Uint16(payload[2:]))
	rows = int(binary.LittleEndian.Uint32(payload[4:]))
	bits = payload[columnHeaderLen:]
	if want := (rows + 7) / 8; len(bits) != want {
		return 0, 0, 0, nil, fmt.Errorf("core: column payload has %d bit bytes, want %d for %d rows", len(bits), want, rows)
	}
	if modeIdx < 0 || modeIdx > 2 {
		return 0, 0, 0, nil, fmt.Errorf("core: column payload mode %d outside [0,2]", modeIdx)
	}
	return modeIdx, col, rows, bits, nil
}

// encodeDeltas packs one eval task's per-row error differences
// (KindEval's result payload).
func encodeDeltas(deltas []int64) []byte {
	out := make([]byte, 4+8*len(deltas))
	binary.LittleEndian.PutUint32(out, uint32(len(deltas)))
	for i, d := range deltas {
		binary.LittleEndian.PutUint64(out[4+8*i:], uint64(d))
	}
	return out
}

// decodeDeltas unpacks an eval payload, insisting on exactly rows entries
// — the driver knows the factor's row count and a mismatched executor
// must fail loudly, not silently mis-commit columns.
func decodeDeltas(payload []byte, rows int) ([]int64, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("core: deltas payload truncated: %d bytes", len(payload))
	}
	n := int(binary.LittleEndian.Uint32(payload))
	if n != rows {
		return nil, fmt.Errorf("core: deltas payload has %d rows, want %d", n, rows)
	}
	if len(payload) != 4+8*n {
		return nil, fmt.Errorf("core: deltas payload is %d bytes, want %d", len(payload), 4+8*n)
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(payload[4+8*i:]))
	}
	return out, nil
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

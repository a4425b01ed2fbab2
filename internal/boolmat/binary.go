package boolmat

import (
	"encoding/binary"
	"fmt"
)

// factorHeaderLen is the binary snapshot header: u32 rows, u32 rank.
const factorHeaderLen = 8

// BinarySize returns the length of the matrix's AppendBinary encoding.
func (m *FactorMatrix) BinarySize() int { return factorHeaderLen + 8*len(m.rows) }

// AppendBinary appends the factor matrix in the binary snapshot layout —
// little-endian u32 row count, u32 rank, then one u64 row mask per row —
// and returns the extended slice. The layout is the factor component of
// the durable checkpoint format; DecodeBinaryFactor inverts it.
func (m *FactorMatrix) AppendBinary(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(m.rows)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(m.r))
	for _, row := range m.rows {
		dst = binary.LittleEndian.AppendUint64(dst, row)
	}
	return dst
}

// DecodeBinaryFactor decodes one factor matrix from the front of data in
// the AppendBinary layout and returns it with the remaining bytes.
// Corrupt input — truncated headers or rows, an out-of-range rank, or row
// masks with bits at or above the rank — returns an error; the decoder
// never allocates more than the input can back, so a hostile header
// cannot force a huge allocation.
func DecodeBinaryFactor(data []byte) (*FactorMatrix, []byte, error) {
	if len(data) < factorHeaderLen {
		return nil, nil, fmt.Errorf("boolmat: factor snapshot truncated: %d header bytes, want %d", len(data), factorHeaderLen)
	}
	rows := binary.LittleEndian.Uint32(data)
	rank := binary.LittleEndian.Uint32(data[4:])
	if rank > MaxRank {
		return nil, nil, fmt.Errorf("boolmat: factor snapshot rank %d > %d", rank, MaxRank)
	}
	rest := data[factorHeaderLen:]
	if uint64(len(rest)) < uint64(rows)*8 {
		return nil, nil, fmt.Errorf("boolmat: factor snapshot truncated: %d mask bytes, want %d rows", len(rest), rows)
	}
	masks := make([]uint64, rows)
	for i := range masks {
		mask := binary.LittleEndian.Uint64(rest[i*8:])
		if rank < MaxRank && mask>>rank != 0 {
			return nil, nil, fmt.Errorf("boolmat: factor snapshot row %d mask %#x has bits beyond rank %d", i, mask, rank)
		}
		masks[i] = mask
	}
	return &FactorMatrix{rows: masks, r: int(rank)}, rest[rows*8:], nil
}

package tensor

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

// binaryMagic identifies the compact binary tensor format.
var binaryMagic = [4]byte{'D', 'B', 'T', '1'}

// uvarintLen is the number of bytes binary.AppendUvarint writes for v.
func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// BinarySize returns the exact length of the tensor's compact binary
// encoding, from one counting pass over the coordinates.
func (t *Tensor) BinarySize() int {
	n := len(binaryMagic) + uvarintLen(uint64(t.dimI)) + uvarintLen(uint64(t.dimJ)) +
		uvarintLen(uint64(t.dimK)) + uvarintLen(uint64(len(t.coords)))
	prevI := 0
	for _, c := range t.coords {
		n += uvarintLen(uint64(c.I-prevI)) + uvarintLen(uint64(c.J)) + uvarintLen(uint64(c.K))
		prevI = c.I
	}
	return n
}

// AppendBinary appends the tensor in the compact binary format: a 4-byte
// magic, the three dimensions and the nonzero count as uvarints, then the
// coordinates in sorted order (per entry: uvarint ΔI from the previous
// entry's I, then J and K as absolute uvarints). The format is typically
// 3–6× smaller than the text format and an order of magnitude faster to
// parse. It is the format's one encoder; a caller that sizes dst by
// BinarySize gets the encoding without a second copy.
func (t *Tensor) AppendBinary(dst []byte) []byte {
	dst = append(dst, binaryMagic[:]...)
	dst = binary.AppendUvarint(dst, uint64(t.dimI))
	dst = binary.AppendUvarint(dst, uint64(t.dimJ))
	dst = binary.AppendUvarint(dst, uint64(t.dimK))
	dst = binary.AppendUvarint(dst, uint64(len(t.coords)))
	prevI := 0
	for _, c := range t.coords {
		dst = binary.AppendUvarint(dst, uint64(c.I-prevI))
		dst = binary.AppendUvarint(dst, uint64(c.J))
		dst = binary.AppendUvarint(dst, uint64(c.K))
		prevI = c.I
	}
	return dst
}

// DecodeBinary parses one tensor in the compact binary format from the
// front of data and returns it with the bytes that follow. It is the
// format's one decoder. Every coordinate is range-checked; the header's
// nonzero count is attacker-controlled and never sizes an allocation
// beyond what data can back; entries that arrive in strictly ascending
// order — as AppendBinary writes them — are taken as they are, and only a
// blob with an entry out of place or repeated is sorted and deduplicated.
func DecodeBinary(data []byte) (*Tensor, []byte, error) {
	if len(data) < len(binaryMagic) {
		return nil, nil, fmt.Errorf("tensor: binary magic: %w", io.ErrUnexpectedEOF)
	}
	if !bytes.Equal(data[:len(binaryMagic)], binaryMagic[:]) {
		return nil, nil, fmt.Errorf("tensor: bad binary magic %q", data[:len(binaryMagic)])
	}
	rest := data[len(binaryMagic):]
	var dims [4]uint64
	for n := range dims {
		v, k := binary.Uvarint(rest)
		if k <= 0 {
			return nil, nil, fmt.Errorf("tensor: binary header: %w", uvarintErr(k))
		}
		dims[n], rest = v, rest[k:]
	}
	const maxDim = 1 << 40
	if dims[0] > maxDim || dims[1] > maxDim || dims[2] > maxDim {
		return nil, nil, fmt.Errorf("tensor: implausible dimensions %dx%dx%d", dims[0], dims[1], dims[2])
	}
	t := New(int(dims[0]), int(dims[1]), int(dims[2]))
	// An entry is at least three bytes: a count the input cannot back is
	// refused here, before it sizes the coordinate list.
	if dims[3] > uint64(len(rest))/3 {
		return nil, nil, fmt.Errorf("tensor: %d entries claimed, %d bytes follow: %w", dims[3], len(rest), io.ErrUnexpectedEOF)
	}
	nnz := int(dims[3])
	coords := make([]Coord, nnz)
	cur, ordered := 0, true
	for n := range coords {
		di, k1 := binary.Uvarint(rest)
		if k1 <= 0 {
			return nil, nil, fmt.Errorf("tensor: entry %d: %w", n, uvarintErr(k1))
		}
		j, k2 := binary.Uvarint(rest[k1:])
		if k2 <= 0 {
			return nil, nil, fmt.Errorf("tensor: entry %d: %w", n, uvarintErr(k2))
		}
		k, k3 := binary.Uvarint(rest[k1+k2:])
		if k3 <= 0 {
			return nil, nil, fmt.Errorf("tensor: entry %d: %w", n, uvarintErr(k3))
		}
		rest = rest[k1+k2+k3:]
		// maxDim bounds the sum too: a ΔI that would wrap is out of range.
		if di > maxDim || j > maxDim || k > maxDim {
			return nil, nil, fmt.Errorf("tensor: entry %d coordinate out of range", n)
		}
		cur += int(di)
		c := Coord{I: cur, J: int(j), K: int(k)}
		if !t.inRange(c) {
			return nil, nil, fmt.Errorf("tensor: entry %d coordinate (%d,%d,%d) outside %dx%dx%d",
				n, c.I, c.J, c.K, t.dimI, t.dimJ, t.dimK)
		}
		if n > 0 && !coordLess(coords[n-1], c) {
			ordered = false
		}
		coords[n] = c
	}
	if !ordered {
		sortCoords(coords)
		coords = dedup(coords)
	}
	t.coords = coords
	return t, rest, nil
}

// uvarintErr names what a non-positive binary.Uvarint count means.
func uvarintErr(k int) error {
	if k == 0 {
		return io.ErrUnexpectedEOF
	}
	return errors.New("uvarint overflows 64 bits")
}

// WriteBinary writes the tensor's compact binary encoding (AppendBinary)
// in one Write.
func (t *Tensor) WriteBinary(w io.Writer) error {
	_, err := w.Write(t.AppendBinary(make([]byte, 0, t.BinarySize())))
	return err
}

// ReadBinary reads r to its end and parses the tensor at the front of it
// (DecodeBinary); what follows the last entry is ignored.
func ReadBinary(r io.Reader) (*Tensor, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("tensor: reading binary input: %w", err)
	}
	t, _, err := DecodeBinary(data)
	return t, err
}

// WriteBinaryFile writes the tensor to a file in the compact binary
// format.
func (t *Tensor) WriteBinaryFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteBinary(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadBinaryFile reads a tensor from a file in the compact binary format.
func ReadBinaryFile(path string) (*Tensor, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	t, _, err := DecodeBinary(data)
	return t, err
}

// ReadAny reads a tensor in either format, sniffing the binary magic
// first. Input shorter than the magic can only be text; empty input is
// ErrEmpty. The input is held whole while it is parsed, so the caller
// bounds it.
func ReadAny(r io.Reader) (*Tensor, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return decodeAny(data)
}

// ReadAnyFile reads a tensor file in either format; see ReadAny.
func ReadAnyFile(path string) (*Tensor, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeAny(data)
}

func decodeAny(data []byte) (*Tensor, error) {
	if bytes.HasPrefix(data, binaryMagic[:]) {
		t, _, err := DecodeBinary(data)
		return t, err
	}
	return ReadFrom(bytes.NewReader(data))
}

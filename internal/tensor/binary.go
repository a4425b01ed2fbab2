package tensor

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// binaryMagic identifies the compact binary tensor format.
var binaryMagic = [4]byte{'D', 'B', 'T', '1'}

// WriteBinary writes the tensor in the compact binary format: a 4-byte
// magic, the three dimensions and the nonzero count as uvarints, then the
// coordinates in sorted order (per entry: uvarint ΔI from the previous
// entry's I, then J and K as absolute uvarints). The format is typically
// 3–6× smaller than the text format and an order of magnitude faster to
// parse.
func (t *Tensor) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	for _, v := range []uint64{uint64(t.dimI), uint64(t.dimJ), uint64(t.dimK), uint64(len(t.coords))} {
		if err := putUvarint(v); err != nil {
			return err
		}
	}
	prev := Coord{I: -1, J: -1, K: -1}
	for _, c := range t.coords {
		di := c.I - prev.I
		if prev.I < 0 {
			di = c.I
		}
		if err := putUvarint(uint64(di)); err != nil {
			return err
		}
		if err := putUvarint(uint64(c.J)); err != nil {
			return err
		}
		if err := putUvarint(uint64(c.K)); err != nil {
			return err
		}
		prev = c
	}
	return bw.Flush()
}

// ReadBinary parses the compact binary format written by WriteBinary.
func ReadBinary(r io.Reader) (*Tensor, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("tensor: binary magic: %w", err)
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("tensor: bad binary magic %q", magic[:])
	}
	read := func() (uint64, error) { return binary.ReadUvarint(br) }
	dims := make([]uint64, 4)
	for n := range dims {
		v, err := read()
		if err != nil {
			return nil, fmt.Errorf("tensor: binary header: %w", err)
		}
		dims[n] = v
	}
	const maxDim = 1 << 40
	if dims[0] > maxDim || dims[1] > maxDim || dims[2] > maxDim {
		return nil, fmt.Errorf("tensor: implausible dimensions %v", dims[:3])
	}
	t := New(int(dims[0]), int(dims[1]), int(dims[2]))
	nnz := int(dims[3])
	if nnz < 0 {
		return nil, fmt.Errorf("tensor: negative nonzero count")
	}
	// The header's nonzero count is attacker-controlled: cap the initial
	// allocation and let append grow it against actually-present entries,
	// so a forged header cannot over-allocate.
	prealloc := nnz
	if prealloc > 1<<20 {
		prealloc = 1 << 20
	}
	coords := make([]Coord, 0, prealloc)
	cur := 0
	for n := 0; n < nnz; n++ {
		di, err := read()
		if err != nil {
			return nil, fmt.Errorf("tensor: entry %d: %w", n, err)
		}
		j, err := read()
		if err != nil {
			return nil, fmt.Errorf("tensor: entry %d: %w", n, err)
		}
		k, err := read()
		if err != nil {
			return nil, fmt.Errorf("tensor: entry %d: %w", n, err)
		}
		cur += int(di)
		c := Coord{I: cur, J: int(j), K: int(k)}
		if !t.inRange(c) {
			return nil, fmt.Errorf("tensor: entry %d coordinate (%d,%d,%d) outside %dx%dx%d",
				n, c.I, c.J, c.K, t.dimI, t.dimJ, t.dimK)
		}
		coords = append(coords, c)
	}
	sortCoords(coords)
	t.coords = dedup(coords)
	return t, nil
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
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBinary(f)
}

// ReadAny reads a tensor in either format, sniffing the binary magic
// first. Input shorter than the magic can only be text; empty input is
// ErrEmpty.
func ReadAny(r io.Reader) (*Tensor, error) {
	br := bufio.NewReader(r)
	if magic, _ := br.Peek(len(binaryMagic)); bytes.Equal(magic, binaryMagic[:]) {
		return ReadBinary(br)
	}
	return ReadFrom(br)
}

// ReadAnyFile reads a tensor file in either format; see ReadAny.
func ReadAnyFile(path string) (*Tensor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadAny(f)
}

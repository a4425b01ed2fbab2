// Bit strings of Exp-Golomb codes: the one codec of the set-up bodies a
// machine is shipped and of the eval replies it sends back. Bits run
// most significant first and a string is zero-padded to a byte.
package bitvec

import (
	"encoding/binary"
	"math/bits"
)

// ExpGolombBits is the length of v's order-k Exp-Golomb code: with
// q = v>>k + 1, bitlen(q)−1 zeros, q, then v's low k bits.
func ExpGolombBits(v uint64, k uint) int { return 2*bits.Len64(v>>k+1) - 1 + int(k) }

// BitWriter appends bits to a byte slice, most significant first.
type BitWriter struct {
	dst []byte
	acc uint64 // the pending bits in its low n bits, n < 8 between writes
	n   uint
}

// NewBitWriter returns a writer appending to dst.
func NewBitWriter(dst []byte) BitWriter { return BitWriter{dst: dst} }

// Write appends v's low n bits, n <= 56; v has no bit above them.
func (w *BitWriter) Write(v uint64, n uint) {
	w.acc = w.acc<<n | v
	w.n += n
	for w.n >= 8 {
		w.n -= 8
		w.dst = append(w.dst, byte(w.acc>>w.n))
	}
}

// ExpGolomb appends v's order-k code. The zeros aside, the code is q's bits
// followed by v's low k, which is v + 2^k in bitlen(q) + k bits, so each
// write is at most bitlen(v + 2^k) bits: v + 2^k must be below 2^56.
func (w *BitWriter) ExpGolomb(v uint64, k uint) {
	q := v>>k + 1
	w.Write(0, uint(bits.Len64(q))-1)
	w.Write(v+1<<k, uint(bits.Len64(q))+k)
}

// Pad zero-fills the last byte and returns the bytes written.
func (w *BitWriter) Pad() []byte {
	if w.n > 0 {
		w.Write(0, 8-w.n)
	}
	return w.dst
}

// BitReader reads an MSB-first bit string.
type BitReader struct {
	b   []byte
	pos int // bits read
}

// NewBitReader returns a reader of b from its first bit.
func NewBitReader(b []byte) BitReader { return BitReader{b: b} }

// Left returns the bits not yet read.
func (r *BitReader) Left() int { return 8*len(r.b) - r.pos }

// Rest returns the bytes from the one holding the next unread bit on: after
// Align, the bytes not yet read.
func (r *BitReader) Rest() []byte { return r.b[r.pos>>3:] }

// peek returns the bits from pos on, the first in the top bit: at least 57
// of them, zeros past the end.
func (r *BitReader) peek() uint64 {
	i := r.pos >> 3
	var v uint64
	if i+8 <= len(r.b) {
		v = binary.BigEndian.Uint64(r.b[i:])
	} else {
		for j := i; j < i+8; j++ {
			v <<= 8
			if j < len(r.b) {
				v |= uint64(r.b[j])
			}
		}
	}
	return v << (r.pos & 7)
}

// Bits reads n bits, n <= 57, as an unsigned value. It reports false,
// having read nothing, when fewer than n are left.
func (r *BitReader) Bits(n int) (uint64, bool) {
	if n > r.Left() {
		return 0, false
	}
	if n == 0 {
		return 0, true
	}
	v := r.peek() >> (64 - n)
	r.pos += n
	return v, true
}

// ExpGolomb reads an order-k code whose zero prefix is at most maxZeros
// bits, maxZeros+1+k <= 57. It reports false, having read nothing it
// keeps, for a longer prefix or a code that runs past the end.
func (r *BitReader) ExpGolomb(k uint, maxZeros int) (uint64, bool) {
	z := bits.LeadingZeros64(r.peek())
	if z > maxZeros || 2*z+1+int(k) > r.Left() {
		return 0, false
	}
	r.pos += z
	n := z + 1 + int(k)
	v := r.peek() >> (64 - n)
	r.pos += n
	return v - 1<<k, true
}

// Align skips to the next byte boundary, and reports whether every bit it
// skipped is zero.
func (r *BitReader) Align() bool {
	skip := -r.pos & 7
	if skip == 0 {
		return true
	}
	ok := r.b[r.pos>>3]&(1<<skip-1) == 0
	r.pos += skip
	return ok
}
